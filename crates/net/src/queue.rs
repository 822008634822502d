//! The bounded FIFO between the connection readers and the engine loop.
//!
//! `serve --listen` runs exactly one of these: every reader pushes its
//! decoded arrivals and in-band markers, and the engine loop is the only
//! popper. Capacity is the backpressure mechanism: a full queue either
//! blocks the pusher ([`BoundedQueue::push`]) or refuses the item
//! ([`BoundedQueue::try_push`], the server's shed path). The popper
//! sleeps in [`BoundedQueue::pop_into`] until an item arrives, so
//! neither side polls, and each side signals the other only when a
//! thread is asleep there: while the engine loop keeps up, a push
//! costs its reader a lock and no wakeup syscall.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Threads asleep in `push` (on `not_full`) and in `pop_into` (on
    /// `not_empty`). Counted under the lock, so a signal is skipped only
    /// when nobody can be waiting for it.
    full_waiters: usize,
    empty_waiters: usize,
}

/// A bounded multi-producer FIFO with blocking and non-blocking push
/// and batched pop.
pub struct BoundedQueue<T> {
    cap: usize,
    state: Mutex<State<T>>,
    not_full: Condvar,
    not_empty: Condvar,
}

impl<T> BoundedQueue<T> {
    /// An empty queue holding at most `cap` items (`cap >= 1`).
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1, "queue capacity must be positive");
        Self {
            cap,
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
                full_waiters: 0,
                empty_waiters: 0,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().expect("queue poisoned")
    }

    /// Pushes `item`, blocking while the queue is full. Returns the
    /// item back if the queue was closed.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut s = self.lock();
        while s.items.len() >= self.cap && !s.closed {
            s.full_waiters += 1;
            s = self.not_full.wait(s).expect("queue poisoned");
            s.full_waiters -= 1;
        }
        self.enqueue(s, item)
    }

    /// Pushes `item` without blocking. Returns the item back if the
    /// queue is full or closed.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let s = self.lock();
        if s.items.len() >= self.cap {
            return Err(item);
        }
        self.enqueue(s, item)
    }

    fn enqueue(&self, mut s: MutexGuard<'_, State<T>>, item: T) -> Result<(), T> {
        if s.closed {
            return Err(item);
        }
        s.items.push_back(item);
        let wake = s.empty_waiters > 0;
        drop(s);
        if wake {
            self.not_empty.notify_one();
        }
        Ok(())
    }

    /// Pops up to `max` items into `out` without blocking. Returns how
    /// many were taken.
    pub fn drain_into(&self, out: &mut Vec<T>, max: usize) -> usize {
        let s = self.lock();
        self.take(s, out, max)
    }

    /// Blocks until the queue holds an item or is closed, then pops up
    /// to `max` items into `out`. Returns how many were taken: 0 only
    /// once the queue is closed and empty.
    pub fn pop_into(&self, out: &mut Vec<T>, max: usize) -> usize {
        let mut s = self.lock();
        while s.items.is_empty() && !s.closed {
            s.empty_waiters += 1;
            s = self.not_empty.wait(s).expect("queue poisoned");
            s.empty_waiters -= 1;
        }
        self.take(s, out, max)
    }

    fn take(&self, mut s: MutexGuard<'_, State<T>>, out: &mut Vec<T>, max: usize) -> usize {
        let take = max.min(s.items.len());
        out.extend(s.items.drain(..take));
        let wake = take > 0 && s.full_waiters > 0;
        drop(s);
        if wake {
            self.not_full.notify_all();
        }
        take
    }

    /// Closes the queue: pending items stay poppable, further pushes
    /// fail, blocked pushers and the popper wake.
    pub fn close(&self) {
        self.lock().closed = true;
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn fifo_order_and_bounded_drain() {
        let q = BoundedQueue::new(8);
        for n in 0..5 {
            q.push(n).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(q.drain_into(&mut out, 3), 3);
        assert_eq!(out, vec![0, 1, 2]);
        assert_eq!(q.pop_into(&mut out, 10), 2);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        assert_eq!(q.drain_into(&mut out, 10), 0);
    }

    #[test]
    fn full_queue_blocks_push_until_popped() {
        let q = Arc::new(BoundedQueue::new(2));
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.try_push(9), Err(9));
        let pusher = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(3))
        };
        // The pusher is stuck until we make room.
        std::thread::sleep(Duration::from_millis(20));
        assert!(!pusher.is_finished(), "push through a full queue");
        let mut out = Vec::new();
        q.drain_into(&mut out, 1);
        pusher.join().unwrap().unwrap();
        q.drain_into(&mut out, 10);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn a_sleeping_popper_wakes_on_push() {
        let q = Arc::new(BoundedQueue::new(4));
        let (tx, rx) = std::sync::mpsc::channel();
        let popper = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut out = Vec::new();
                q.pop_into(&mut out, 10);
                tx.send(out).unwrap();
            })
        };
        // The popper counts itself and starts waiting under one lock
        // hold, so once the count shows under the lock it is asleep.
        while q.lock().empty_waiters == 0 {
            std::thread::yield_now();
        }
        q.push(7).unwrap();
        let got = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the push must wake the sleeping popper");
        assert_eq!(got, vec![7]);
        popper.join().unwrap();
    }

    #[test]
    fn close_fails_pushes_but_keeps_pending_items() {
        let q = BoundedQueue::new(4);
        q.push("kept").unwrap();
        q.close();
        assert_eq!(q.push("dropped"), Err("dropped"));
        assert_eq!(q.try_push("dropped"), Err("dropped"));
        let mut out = Vec::new();
        assert_eq!(q.pop_into(&mut out, 10), 1);
        assert_eq!(out, vec!["kept"]);
        // pop_into on a closed empty queue returns immediately.
        assert_eq!(q.pop_into(&mut out, 10), 0);
    }

    #[test]
    fn close_wakes_a_blocked_pusher() {
        let q = Arc::new(BoundedQueue::new(1));
        q.push(1).unwrap();
        let pusher = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(2))
        };
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(pusher.join().unwrap(), Err(2));
    }
}
