//! A scratch directory for tests that spawn real binaries: unique per
//! test process and test name, removed when the guard drops — also when
//! the test fails.

use std::path::{Path, PathBuf};

/// An empty directory under the system temp dir, removed on drop.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates `<tmp>/pphw-<pid>-<test>` afresh. `test` must be unique
    /// among the tests of one binary (they run in parallel threads of one
    /// process); the pid keeps concurrent `cargo test` runs apart.
    ///
    /// # Panics
    ///
    /// Panics if the directory cannot be created.
    #[must_use]
    pub fn new(test: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("pphw-{}-{test}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("creating {dir:?}: {e}"));
        TempDir(dir)
    }

    /// The directory itself.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::TempDir;

    #[test]
    fn directory_exists_while_held_and_is_gone_after() {
        let dir = TempDir::new("tempdir-self-test");
        let path = dir.path().to_path_buf();
        std::fs::write(path.join("x.txt"), "x").expect("write");
        drop(dir);
        assert!(!path.exists());
    }
}
