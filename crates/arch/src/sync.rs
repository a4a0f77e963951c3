//! Thin wrappers over `std::sync` primitives with the ergonomics the
//! simulator wants: `lock()` without a `Result`, and poison-tolerance.
//!
//! A rank thread that panics (a deliberately aborted job, a test
//! asserting a deadlock diagnostic) would poison a plain
//! `std::sync::Mutex` and turn every later `lock().unwrap()` into a
//! cascade of secondary panics. The phase engine already guarantees
//! loud failure through its abort flag; these wrappers simply hand out
//! the inner data either way.

use std::sync::{self, MutexGuard};

/// A mutex whose `lock` never fails: poisoning is ignored and the guard
/// is returned regardless (the data of a panicked rank is still the
/// best diagnostic available).
#[derive(Debug, Default)]
pub struct Mutex<T>(sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Wrap `value` in a mutex.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex(sync::Mutex::new(value))
    }

    /// Acquire the lock, ignoring poison.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(sync::PoisonError::into_inner)
    }
}

/// A condition variable paired with [`Mutex`]: `wait` consumes and
/// returns the guard, ignoring poison.
#[derive(Debug, Default)]
pub struct Condvar(sync::Condvar);

impl Condvar {
    /// A fresh condition variable.
    pub const fn new() -> Condvar {
        Condvar(sync::Condvar::new())
    }

    /// Block until notified; re-acquires the lock before returning.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.0
            .wait(guard)
            .unwrap_or_else(sync::PoisonError::into_inner)
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_survives_a_poisoning_panic() {
        let m = Arc::new(Mutex::new(0u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn condvar_handshake() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (m, cv) = &*pair2;
            let mut ready = m.lock();
            while !*ready {
                ready = cv.wait(ready);
            }
        });
        {
            let (m, cv) = &*pair;
            *m.lock() = true;
            cv.notify_all();
        }
        t.join().unwrap();
    }
}
