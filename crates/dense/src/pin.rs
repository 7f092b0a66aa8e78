//! Scoped overrides of the two process globals every kernel reads — the
//! worker-pool width ([`runtime::set_threads`]) and the kernel backend
//! ([`backend::set_backend`]) — and the one lock under which code that sets
//! them serializes.
//!
//! A pin sets its global when made and puts the previous value back when
//! dropped, unwinding included, so a panicking test or an inner pin cannot
//! leak an override. Pins do not lock: a test whose result depends on either
//! global takes [`lock`] first and pins under it.

use std::sync::{Mutex, MutexGuard};

use crate::backend::{self, BackendKind};
use crate::runtime;

static LOCK: Mutex<()> = Mutex::new(());

/// The lock tests hold while they set either global. A test that failed
/// while holding it does not fail the next one (poison is ignored).
pub fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Worker-pool width `n` (0 = the default) while the pin lives.
pub fn threads(n: usize) -> Threads {
    Threads {
        prev: runtime::replace_threads(n),
    }
}

/// Backend `kind` while the pin lives.
pub fn backend(kind: BackendKind) -> Backend {
    Backend {
        prev: backend::replace_backend(Some(kind)),
    }
}

/// See [`threads`].
#[must_use = "the width is pinned only while the guard lives"]
pub struct Threads {
    prev: usize,
}

impl Drop for Threads {
    fn drop(&mut self) {
        runtime::replace_threads(self.prev);
    }
}

/// See [`backend()`].
#[must_use = "the backend is pinned only while the guard lives"]
pub struct Backend {
    prev: Option<BackendKind>,
}

impl Drop for Backend {
    fn drop(&mut self) {
        backend::replace_backend(self.prev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_restore_the_previous_value_on_unwind() {
        let _l = lock();
        let _outer = threads(3);
        let _kind = backend(BackendKind::Scalar);
        let unwound = std::panic::catch_unwind(|| {
            let _inner = threads(5);
            let _simd = backend(BackendKind::Simd);
            panic!("unwinds through both pins");
        });
        assert!(unwound.is_err());
        assert_eq!(runtime::num_threads(), 3);
        assert_eq!(backend::selected_kind(), BackendKind::Scalar);
    }
}
