//! Minimal stand-in for `parking_lot`: a `Mutex` and an `RwLock` with the
//! non-poisoning `lock()`/`read()`/`write()` signatures, backed by their
//! `std::sync` counterparts.

#![forbid(unsafe_code)]

use std::sync::Mutex as StdMutex;
use std::sync::RwLock as StdRwLock;

pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;
pub type RwLockReadGuard<'a, T> = std::sync::RwLockReadGuard<'a, T>;
pub type RwLockWriteGuard<'a, T> = std::sync::RwLockWriteGuard<'a, T>;

/// Non-poisoning mutex (poison is swallowed, as parking_lot does by design).
#[derive(Debug, Default)]
pub struct Mutex<T>(StdMutex<T>);

impl<T> Mutex<T> {
    pub fn new(value: T) -> Self {
        Self(StdMutex::new(value))
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

/// Non-poisoning reader–writer lock (poison is swallowed, as parking_lot
/// does by design). Grown for `grappolo_serve`'s snapshot cell: many
/// readers clone an `Arc` under `read()` while re-detection swaps the
/// snapshot under a brief `write()`.
#[derive(Debug, Default)]
pub struct RwLock<T>(StdRwLock<T>);

impl<T> RwLock<T> {
    pub fn new(value: T) -> Self {
        Self(StdRwLock::new(value))
    }

    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(|e| e.into_inner())
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(|e| e.into_inner())
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_and_into_inner() {
        let m = Mutex::new(41);
        *m.lock() += 1;
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn rwlock_read_write_and_into_inner() {
        let l = RwLock::new(1);
        assert_eq!(*l.read(), 1);
        *l.write() += 1;
        assert_eq!(*l.read(), 2);
        assert_eq!(l.into_inner(), 2);
    }
}
