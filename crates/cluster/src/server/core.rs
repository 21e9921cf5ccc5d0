//! A simulated CPU core: a FIFO run queue, a current frequency, and
//! busy-time accounting.

use std::collections::VecDeque;

use treadmill_sim_core::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use treadmill_sim_core::{SimDuration, SimTime, UtilizationTracker};

use crate::checkpoint;
use crate::request::Request;

/// A unit of work on a core's run queue.
///
/// Requests are boxed: a job travels through run queues and the event
/// heap, and a thin pointer keeps those moves (and heap sifts) cheap.
#[derive(Debug)]
pub enum CoreJob {
    /// Kernel interrupt handling for an inbound request packet.
    Irq(Box<Request>),
    /// Worker-thread servicing of a request.
    Work(Box<Request>),
    /// A frequency-transition stall: the core is unavailable while the
    /// voltage/frequency ramp completes.
    Stall(SimDuration),
}

/// One CPU core.
#[derive(Debug)]
pub struct Core {
    /// Core index.
    pub id: u8,
    /// NUMA socket this core belongs to.
    pub socket: u8,
    queue: VecDeque<CoreJob>,
    busy: bool,
    freq_ghz: f64,
    /// Cumulative + windowed busy-time accounting.
    pub util: UtilizationTracker,
    jobs_done: u64,
    transitions: u64,
}

impl Core {
    /// Creates an idle core at the given frequency.
    pub fn new(id: u8, socket: u8, freq_ghz: f64) -> Self {
        Core {
            id,
            socket,
            queue: VecDeque::new(),
            busy: false,
            freq_ghz,
            util: UtilizationTracker::new(),
            jobs_done: 0,
            transitions: 0,
        }
    }

    /// Current operating frequency in GHz.
    pub fn freq_ghz(&self) -> f64 {
        self.freq_ghz
    }

    /// Changes the operating frequency, returning `true` if it actually
    /// changed (callers insert a [`CoreJob::Stall`] when it did).
    pub fn set_freq(&mut self, ghz: f64) -> bool {
        if (self.freq_ghz - ghz).abs() < 1e-9 {
            return false;
        }
        self.freq_ghz = ghz;
        self.transitions += 1;
        true
    }

    /// Appends a job to the run queue.
    pub fn enqueue(&mut self, job: CoreJob) {
        self.queue.push_back(job);
    }

    /// Inserts a job at the *front* of the run queue (used for
    /// frequency-transition stalls, which preempt queued work).
    pub fn enqueue_front(&mut self, job: CoreJob) {
        self.queue.push_front(job);
    }

    /// Takes the next job if the core is idle, marking it busy.
    /// The caller computes the job's duration and must call
    /// [`Core::finish_job`] when it completes.
    pub fn try_dispatch(&mut self) -> Option<CoreJob> {
        if self.busy {
            return None;
        }
        let job = self.queue.pop_front()?;
        self.busy = true;
        Some(job)
    }

    /// Records completion of the in-flight job that ran over
    /// `[start, start + duration]`.
    ///
    /// # Panics
    ///
    /// Panics if the core was not busy.
    pub fn finish_job(&mut self, start: SimTime, duration: SimDuration) {
        assert!(self.busy, "finish_job on idle core {}", self.id);
        self.busy = false;
        self.util.record_busy(start, duration);
        self.jobs_done += 1;
    }

    /// True if a job is executing.
    pub fn is_busy(&self) -> bool {
        self.busy
    }

    /// Queue length (not counting the executing job).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Empties the run queue (a server crash loses queued work),
    /// returning how many *request-carrying* jobs were discarded.
    /// The in-flight job, if any, is not touched — its completion
    /// event is already on the heap and is invalidated by the caller.
    pub fn clear_queue(&mut self) -> usize {
        let dropped = self
            .queue
            .iter()
            .filter(|job| matches!(job, CoreJob::Irq(_) | CoreJob::Work(_)))
            .count();
        self.queue.clear();
        dropped
    }

    /// Total jobs completed.
    pub fn jobs_done(&self) -> u64 {
        self.jobs_done
    }

    /// Number of frequency transitions performed.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Writes the core's runtime state to a checkpoint: run queue,
    /// busy flag, frequency, busy-time accounting and counters.
    pub(crate) fn save(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.queue.len() as u64);
        for job in &self.queue {
            checkpoint::put_job(w, job);
        }
        w.put_bool(self.busy);
        w.put_f64(self.freq_ghz);
        self.util.save(w);
        w.put_u64(self.jobs_done);
        w.put_u64(self.transitions);
    }

    /// Overwrites the core's runtime state with what [`Self::save`]
    /// wrote. Unlike [`Core::set_freq`], restoring the frequency does
    /// not count a transition: `transitions` already holds it.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] on an unknown job tag;
    /// [`SnapshotError::Truncated`] if the checkpoint ends early.
    pub(crate) fn load(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let n_jobs = r.get_u64()?;
        self.queue = VecDeque::with_capacity(checkpoint::checked_len(n_jobs)?);
        for _ in 0..n_jobs {
            self.queue.push_back(checkpoint::get_job(r)?);
        }
        self.busy = r.get_bool()?;
        self.freq_ghz = r.get_f64()?;
        self.util.load(r)?;
        self.jobs_done = r.get_u64()?;
        self.transitions = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestId;
    use treadmill_workloads::{OpClass, RequestProfile};

    fn request() -> Request {
        Request::new(
            RequestId(1),
            0,
            0,
            RequestProfile {
                class: OpClass::Read,
                request_bytes: 64,
                response_bytes: 128,
                cpu_ns: 10_000.0,
                mem_ns: 3_000.0,
            },
            SimTime::ZERO,
        )
    }

    #[test]
    fn dispatch_cycle() {
        let mut core = Core::new(0, 0, 2.2);
        assert!(core.try_dispatch().is_none(), "idle core, empty queue");
        core.enqueue(CoreJob::Work(Box::new(request())));
        let job = core.try_dispatch().unwrap();
        assert!(matches!(job, CoreJob::Work(_)));
        assert!(core.is_busy());
        assert!(core.try_dispatch().is_none(), "busy core can't dispatch");
        core.finish_job(SimTime::ZERO, SimDuration::from_micros(10));
        assert!(!core.is_busy());
        assert_eq!(core.jobs_done(), 1);
        assert_eq!(core.util.busy_total(), SimDuration::from_micros(10));
    }

    #[test]
    fn stall_preempts_queue() {
        let mut core = Core::new(0, 0, 2.2);
        core.enqueue(CoreJob::Work(Box::new(request())));
        core.enqueue_front(CoreJob::Stall(SimDuration::from_micros(40)));
        assert!(matches!(core.try_dispatch().unwrap(), CoreJob::Stall(_)));
        assert_eq!(core.queue_len(), 1);
    }

    #[test]
    fn freq_changes_counted() {
        let mut core = Core::new(3, 0, 2.2);
        assert!(!core.set_freq(2.2), "same freq is not a transition");
        assert!(core.set_freq(1.2));
        assert!(core.set_freq(3.0));
        assert_eq!(core.transitions(), 2);
        assert_eq!(core.freq_ghz(), 3.0);
    }

    #[test]
    #[should_panic(expected = "idle core")]
    fn finish_on_idle_panics() {
        let mut core = Core::new(0, 0, 2.2);
        core.finish_job(SimTime::ZERO, SimDuration::from_micros(1));
    }
}
