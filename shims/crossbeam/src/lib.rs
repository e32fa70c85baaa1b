//! Offline stand-in for the slice of `crossbeam` this workspace uses:
//! scoped threads for the shard pool and the parallel scenario sweeps,
//! backed by `std::thread::scope` (stable since 1.63).

pub mod thread {
    //! Scoped threads with the `crossbeam::thread` API shape, backed by
    //! `std::thread::scope`.
    //!
    //! Divergences from the real crate (acceptable for this workspace):
    //! the closure handed to [`Scope::spawn`] takes no `&Scope` argument
    //! (so spawned threads cannot themselves spawn into the scope), and a
    //! child panic propagates out of [`scope`] instead of being collected
    //! into the returned `Result` — the workspace treats worker panics as
    //! fatal either way.

    /// Result of joining a scoped thread, as returned by
    /// [`ScopedJoinHandle::join`].
    pub type Result<T> = std::thread::Result<T>;

    /// A handle for spawning threads that may borrow from the enclosing
    /// stack frame.
    #[derive(Debug)]
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawns a thread scoped to this block; it is joined (at the
        /// latest) when [`scope`] returns.
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce() -> T + Send + 'scope,
            T: Send + 'scope,
        {
            ScopedJoinHandle { inner: self.inner.spawn(f) }
        }
    }

    /// Owned permission to join a scoped thread and take its result.
    #[derive(Debug)]
    pub struct ScopedJoinHandle<'scope, T> {
        inner: std::thread::ScopedJoinHandle<'scope, T>,
    }

    impl<T> ScopedJoinHandle<'_, T> {
        /// Waits for the thread to finish and returns its result (`Err`
        /// holds the panic payload if it panicked).
        ///
        /// # Errors
        ///
        /// Returns the boxed panic payload when the thread panicked.
        pub fn join(self) -> Result<T> {
            self.inner.join()
        }
    }

    /// Creates a scope for spawning borrowing threads; every spawned
    /// thread is joined before this returns.
    ///
    /// # Errors
    ///
    /// Never returns `Err` in this stand-in: a panicking child
    /// re-panics here (see the module docs). The `Result` return
    /// mirrors `crossbeam::thread::scope` so call sites are compatible
    /// with the real crate.
    pub fn scope<'env, F, R>(f: F) -> Result<R>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        Ok(std::thread::scope(|s| f(&Scope { inner: s })))
    }

    #[cfg(test)]
    mod tests {
        #[test]
        fn scoped_threads_borrow_and_join() {
            let data = [1u64, 2, 3, 4];
            let mut results = vec![0u64; data.len()];
            super::scope(|s| {
                let mut handles = Vec::new();
                for &x in &data {
                    handles.push(s.spawn(move || x * 10));
                }
                for (slot, handle) in results.iter_mut().zip(handles) {
                    *slot = handle.join().expect("worker panicked");
                }
            })
            .expect("scope failed");
            assert_eq!(results, [10, 20, 30, 40]);
        }

        #[test]
        fn scope_returns_closure_value() {
            let sum = super::scope(|s| {
                let h = s.spawn(|| 40);
                h.join().unwrap() + 2
            })
            .unwrap();
            assert_eq!(sum, 42);
        }
    }
}
