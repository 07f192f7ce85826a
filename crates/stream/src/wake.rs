//! [`EventCount`]: the park a consumer cannot miss a wakeup on.
//!
//! A plain "check, then wait on a condvar" loop loses any notification
//! that lands between the check and the wait, and has to paper over
//! the hole with a short timed re-check. An event count closes the
//! hole instead: the waiter reads a sequence number **before** it
//! checks for work, and [`EventCount::park`] sleeps only if that
//! number is still current — a notification at any point after the
//! read turns the park into a no-op.
//!
//! Every [`Consumer`](crate::broker::Consumer) owns one, registered
//! with every topic it subscribes to, so one park covers all of its
//! topics as well as control wakes
//! ([`Broker::notify_topic`](crate::broker::Broker::notify_topic)).
//! A waiter that has to sleep in a blocking call of its own — a bridge
//! thread in `poll(2)` over a socket — uses [`EventCount::park_in`] and
//! installs a *bell* ([`EventCount::set_bell`]) that interrupts that
//! call; the bell is rung only while a sleeper is announced, so
//! notifying a busy consumer costs two atomic operations and no
//! syscall.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// What interrupts a sleeper parked through [`EventCount::park_in`].
type Bell = Box<dyn Fn() + Send + Sync>;

/// A sequence-numbered wakeup channel (see the module docs).
#[derive(Default)]
pub struct EventCount {
    /// Bumped by every notification.
    seq: AtomicU64,
    /// Waiters that announced a park and have not resumed yet.
    ///
    /// Ordering: a waiter bumps `sleepers` and then reads `seq`; a
    /// notifier bumps `seq` and then reads `sleepers` (all `SeqCst`).
    /// One of the two therefore sees the other: either the waiter
    /// finds the sequence moved and does not sleep, or the notifier
    /// finds the sleeper and wakes it.
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
    bell: OnceLock<Bell>,
}

impl EventCount {
    /// A fresh event count with no bell.
    pub fn new() -> EventCount {
        EventCount::default()
    }

    /// Installs the bell that interrupts [`EventCount::park_in`]
    /// sleepers. Set once, by the waiter, before its first park; a
    /// second call is ignored.
    pub fn set_bell(&self, bell: impl Fn() + Send + Sync + 'static) {
        let _ = self.bell.set(Box::new(bell));
    }

    /// The current sequence number. Read it **before** checking for
    /// work, and hand it to the park that follows an empty check.
    pub fn token(&self) -> u64 {
        self.seq.load(Ordering::SeqCst)
    }

    /// Publishes an event: every park holding an older token returns.
    pub fn notify(&self) {
        self.seq.fetch_add(1, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) == 0 {
            return;
        }
        // Condvar sleepers hold `lock` from announcing themselves
        // until they are inside the wait, so taking it here orders
        // this notify after their wait began. `lock` guards no data,
        // so a poisoned one is taken as it is, here and in `park`.
        drop(self.lock.lock().unwrap_or_else(PoisonError::into_inner));
        self.cv.notify_all();
        if let Some(bell) = self.bell.get() {
            bell();
        }
    }

    /// Sleeps until a notification newer than `token` or until
    /// `timeout` passes; returns at once if one already happened.
    /// Returns whether the sequence moved.
    pub fn park(&self, token: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let mut moved = self.seq.load(Ordering::SeqCst) != token;
        while !moved {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            guard = self
                .cv
                .wait_timeout(guard, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
            moved = self.seq.load(Ordering::SeqCst) != token;
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        moved
    }

    /// [`EventCount::park`] for a waiter that sleeps in `sleep` — a
    /// blocking call the installed bell interrupts — instead of on the
    /// condvar. `sleep` runs only if no notification newer than
    /// `token` happened; `None` means it was skipped. The bell may
    /// ring once more than needed (a notify racing the resume), so
    /// `sleep` must tolerate a spurious early return.
    pub fn park_in<R>(&self, token: u64, sleep: impl FnOnce() -> R) -> Option<R> {
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let slept = (self.seq.load(Ordering::SeqCst) == token).then(sleep);
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        slept
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::{mpsc, Arc};

    /// Generous fixed bounds: parks are asked to wait 10 s and must
    /// come back in well under 1 s when an event ends them.
    const LONG: Duration = Duration::from_secs(10);
    const PROMPT: Duration = Duration::from_secs(1);

    #[test]
    fn notify_between_token_and_park_returns_at_once() {
        let ec = EventCount::new();
        let token = ec.token();
        ec.notify(); // lands in the check-to-wait window
        let t0 = Instant::now();
        assert!(ec.park(token, LONG));
        assert!(t0.elapsed() < PROMPT);
        // The same holds for a sleeper of its own making.
        let token = ec.token();
        ec.notify();
        assert!(ec
            .park_in(token, || unreachable!("must not sleep"))
            .is_none());
    }

    #[test]
    fn park_wakes_on_a_later_notify_and_times_out_without_one() {
        let ec = Arc::new(EventCount::new());
        let token = ec.token();
        let (parked_tx, parked_rx) = mpsc::channel();
        let waiter = {
            let ec = Arc::clone(&ec);
            std::thread::spawn(move || {
                parked_tx.send(()).unwrap();
                let t0 = Instant::now();
                (ec.park(token, LONG), t0.elapsed())
            })
        };
        parked_rx.recv().unwrap();
        ec.notify();
        let (moved, waited) = waiter.join().unwrap();
        assert!(moved);
        assert!(
            waited < PROMPT,
            "woken by the event, not the timeout: {waited:?}"
        );
        let token = ec.token();
        assert!(!ec.park(token, Duration::from_millis(20)));
    }

    #[test]
    fn bell_rings_only_for_announced_sleepers() {
        let ec = Arc::new(EventCount::new());
        let rung = Arc::new(AtomicBool::new(false));
        let (bell_tx, bell_rx) = mpsc::channel();
        {
            let rung = Arc::clone(&rung);
            ec.set_bell(move || {
                rung.store(true, Ordering::SeqCst);
                let _ = bell_tx.send(());
            });
        }
        ec.notify();
        assert!(!rung.load(Ordering::SeqCst), "nobody parked: no bell");
        let token = ec.token();
        let (asleep_tx, asleep_rx) = mpsc::channel();
        let waiter = {
            let ec = Arc::clone(&ec);
            std::thread::spawn(move || {
                ec.park_in(token, || {
                    asleep_tx.send(()).unwrap();
                    bell_rx.recv_timeout(LONG).is_ok()
                })
            })
        };
        asleep_rx.recv().unwrap();
        ec.notify();
        assert_eq!(
            waiter.join().unwrap(),
            Some(true),
            "the bell ended the sleep"
        );
    }
}
