use crate::CoreError;
use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A translated delegated program as stored in the repository.
#[derive(Debug, Clone)]
pub struct StoredDp {
    /// Repository name.
    pub name: String,
    /// Original source text (kept for re-translation and auditing).
    pub source: String,
    /// Compiled form shared by all instances: every dpi instantiated from
    /// this dp holds a reference to this one code object, and lookups
    /// never deep-clone it.
    pub program: Arc<dpl::Program>,
    /// Monotonic version, bumped on re-delegation under the same name.
    pub version: u32,
    /// Handle of the delegating principal.
    pub delegated_by: String,
}

/// The dp management repository: a named store of translated programs.
///
/// The prototype's Repository was a file-system database with store,
/// lookup and delete; this one is an in-memory ordered map with the same
/// interface plus versioning. It is shared (`Clone` aliases the same
/// store), matching how the Translator, the RDS dispatcher and the dpi
/// scheduler all reference it.
#[derive(Clone, Default)]
pub struct Repository {
    inner: Arc<RwLock<Programs>>,
}

/// The repository's map, as its lock guards expose it.
pub(crate) type Programs = BTreeMap<String, Arc<StoredDp>>;

/// The entry that storing `name` into `map` installs: the version after
/// the one `map` holds. The caller inserts it.
pub(crate) fn next_version(
    map: &Programs,
    name: &str,
    source: &str,
    program: dpl::Program,
    delegated_by: &str,
) -> Arc<StoredDp> {
    Arc::new(StoredDp {
        name: name.to_string(),
        source: source.to_string(),
        program: Arc::new(program),
        version: map.get(name).map_or(1, |old| old.version + 1),
        delegated_by: delegated_by.to_string(),
    })
}

impl fmt::Debug for Repository {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Repository").field("programs", &self.inner.read().len()).finish()
    }
}

impl Repository {
    /// Creates an empty repository.
    pub fn new() -> Repository {
        Repository::default()
    }

    /// Stores a dp. Re-delegation under an existing name replaces the
    /// program and bumps its version (the paper's hot-swap path: running
    /// dpis keep the old code; new instances get the new version).
    pub fn store(&self, name: &str, source: &str, program: dpl::Program, delegated_by: &str) {
        let mut map = self.inner.write();
        let dp = next_version(&map, name, source, program, delegated_by);
        map.insert(name.to_string(), dp);
    }

    /// The read lock: held by `instantiate` from its lookup to its stage,
    /// and by a snapshot's cut, so a program verb lands wholly before or
    /// after either.
    pub(crate) fn read(&self) -> RwLockReadGuard<'_, Programs> {
        self.inner.read()
    }

    /// The write lock: program verbs and restores commit under it.
    pub(crate) fn write(&self) -> RwLockWriteGuard<'_, Programs> {
        self.inner.write()
    }

    /// Looks up a dp by name. The returned handle shares the stored entry
    /// (and its compiled program) — no deep clone. Re-delegation replaces
    /// the entry, so holders of an old handle keep the old version.
    pub fn lookup(&self, name: &str) -> Option<Arc<StoredDp>> {
        self.inner.read().get(name).cloned()
    }

    /// Deletes a dp.
    ///
    /// # Errors
    ///
    /// [`CoreError::NoSuchProgram`] if absent.
    pub fn delete(&self, name: &str) -> Result<Arc<StoredDp>, CoreError> {
        self.inner
            .write()
            .remove(name)
            .ok_or_else(|| CoreError::NoSuchProgram { name: name.to_string() })
    }

    /// Sorted dp names.
    pub fn names(&self) -> Vec<String> {
        self.inner.read().keys().cloned().collect()
    }

    /// Number of stored dps.
    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    /// Whether the repository is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn program(src: &str) -> dpl::Program {
        let reg: dpl::HostRegistry<()> = dpl::HostRegistry::with_stdlib();
        dpl::compile_program(src, &reg).unwrap()
    }

    #[test]
    fn store_lookup_delete_cycle() {
        let repo = Repository::new();
        assert!(repo.is_empty());
        repo.store("a", "fn f() {}", program("fn f() {}"), "mgr");
        let dp = repo.lookup("a").unwrap();
        assert_eq!(dp.version, 1);
        assert_eq!(dp.delegated_by, "mgr");
        assert_eq!(repo.names(), vec!["a".to_string()]);
        repo.delete("a").unwrap();
        assert!(repo.lookup("a").is_none());
        assert!(matches!(repo.delete("a"), Err(CoreError::NoSuchProgram { .. })));
    }

    #[test]
    fn redelegation_bumps_version() {
        let repo = Repository::new();
        repo.store("a", "fn f() {}", program("fn f() {}"), "mgr");
        repo.store("a", "fn f() { return 1; }", program("fn f() { return 1; }"), "mgr2");
        let dp = repo.lookup("a").unwrap();
        assert_eq!(dp.version, 2);
        assert_eq!(dp.delegated_by, "mgr2");
        assert_eq!(repo.len(), 1);
    }

    #[test]
    fn names_are_sorted() {
        let repo = Repository::new();
        for n in ["zeta", "alpha", "mid"] {
            repo.store(n, "fn f() {}", program("fn f() {}"), "m");
        }
        assert_eq!(repo.names(), vec!["alpha", "mid", "zeta"]);
    }

    #[test]
    fn clones_alias_the_same_store() {
        let repo = Repository::new();
        let alias = repo.clone();
        repo.store("a", "fn f() {}", program("fn f() {}"), "m");
        assert_eq!(alias.len(), 1);
    }
}
