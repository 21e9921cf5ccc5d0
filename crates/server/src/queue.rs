//! Bounded admission queue — the explicit load-shedding layer.
//!
//! The queue never blocks a producer and never grows past its cap:
//! [`BoundedQueue::push`] returns [`Push::Shed`] when full, which the
//! HTTP layer maps to `503` + `Retry-After`. Consumers block in
//! [`BoundedQueue::pop`] until an item arrives or the queue is closed;
//! [`BoundedQueue::close`] wakes every waiter.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// What a push did.
#[derive(Debug)]
pub enum Push<T> {
    /// Enqueued; `depth` is the queue length after the push.
    Accepted {
        /// Queue depth after the push.
        depth: usize,
    },
    /// The queue is full; the item is handed back.
    Shed(T),
    /// The queue is closed; the item is handed back.
    Closed(T),
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A fixed-capacity MPMC queue with explicit shed and close semantics.
pub struct BoundedQueue<T> {
    cap: usize,
    state: Mutex<State<T>>,
    cond: Condvar,
}

impl<T> BoundedQueue<T> {
    /// A queue that holds at most `cap` items.
    pub fn new(cap: usize) -> Self {
        BoundedQueue {
            cap,
            state: Mutex::new(State { items: VecDeque::new(), closed: false }),
            cond: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The capacity this queue sheds beyond.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Items currently queued.
    pub fn depth(&self) -> usize {
        self.lock().items.len()
    }

    /// Non-blocking enqueue: full queues shed instead of waiting.
    pub fn push(&self, item: T) -> Push<T> {
        let mut state = self.lock();
        if state.closed {
            return Push::Closed(item);
        }
        if state.items.len() >= self.cap {
            return Push::Shed(item);
        }
        state.items.push_back(item);
        let depth = state.items.len();
        drop(state);
        self.cond.notify_one();
        Push::Accepted { depth }
    }

    /// Enqueue that ignores the cap — recovery-time re-admission of
    /// journaled jobs, which were admitted under the cap originally.
    pub fn push_unchecked(&self, item: T) {
        let mut state = self.lock();
        if !state.closed {
            state.items.push_back(item);
            drop(state);
            self.cond.notify_one();
        }
    }

    /// Blocking dequeue: waits until an item arrives (`Some`) or the
    /// queue is closed with nothing left to hand out (`None`).
    pub fn pop(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.cond.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes the queue. With `drain_remaining`, already-queued items
    /// are still handed out (HTTP connections get their responses);
    /// without it they are dropped on the floor (queued jobs stay
    /// journaled and re-enqueue on restart).
    pub fn close(&self, drain_remaining: bool) {
        let mut state = self.lock();
        state.closed = true;
        if !drain_remaining {
            state.items.clear();
        }
        drop(state);
        self.cond.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn sheds_at_cap_and_reports_depth() {
        let q = BoundedQueue::new(2);
        assert!(matches!(q.push(1), Push::Accepted { depth: 1 }));
        assert!(matches!(q.push(2), Push::Accepted { depth: 2 }));
        assert!(matches!(q.push(3), Push::Shed(3)));
        assert_eq!(q.depth(), 2);
        assert_eq!(q.pop(), Some(1));
    }

    #[test]
    fn close_without_drain_drops_items() {
        let q = BoundedQueue::new(4);
        let _ = q.push(1);
        q.close(false);
        assert_eq!(q.pop(), None);
        assert!(matches!(q.push(2), Push::Closed(2)));
    }

    #[test]
    fn close_with_drain_hands_out_remaining() {
        let q = BoundedQueue::new(4);
        let _ = q.push(1);
        let _ = q.push(2);
        q.close(true);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_wakes_on_cross_thread_push() {
        let q = Arc::new(BoundedQueue::new(4));
        let consumer = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.pop())
        };
        thread::sleep(Duration::from_millis(20));
        let _ = q.push(7u32);
        assert_eq!(consumer.join().unwrap(), Some(7));
    }

    #[test]
    fn blocked_pop_returns_none_when_another_thread_closes() {
        let q = Arc::new(BoundedQueue::<u32>::new(4));
        let (tx, rx) = std::sync::mpsc::channel();
        let consumer = {
            let q = Arc::clone(&q);
            thread::spawn(move || tx.send(q.pop()).unwrap())
        };
        // Give the consumer time to block on the empty queue; a pop
        // that starts after the close returns `None` just the same.
        thread::sleep(Duration::from_millis(20));
        q.close(true);
        // A close that woke nobody fails here instead of hanging.
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), None);
        consumer.join().unwrap();
    }
}
