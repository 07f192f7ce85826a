//! Self-cleaning scratch directories for tests (no `tempfile` crate
//! in the offline container).

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static COUNTER: AtomicU64 = AtomicU64::new(0);

/// A unique directory under the system temp dir, removed on drop.
pub struct TestDir {
    path: PathBuf,
}

impl TestDir {
    /// Creates `<tmp>/privapprox-<label>-<pid>-<n>`.
    pub fn new(label: &str) -> TestDir {
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("privapprox-{label}-{}-{n}", std::process::id()));
        // A stale dir from a crashed previous run with the same pid is
        // possible; start clean either way.
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path).expect("create test dir");
        TestDir { path }
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Releases the directory without deleting it (crash harnesses
    /// that outlive the handle).
    pub fn keep(mut self) -> PathBuf {
        std::mem::take(&mut self.path)
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        if !self.path.as_os_str().is_empty() {
            let _ = fs::remove_dir_all(&self.path);
        }
    }
}
