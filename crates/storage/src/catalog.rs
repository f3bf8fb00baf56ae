//! The catalog: tables, their heaps, and their indexes.

use crate::btree::BTree;
use crate::heap::HeapFile;
use crate::schema::Schema;
use std::collections::HashMap;

/// Dense table identifier.
pub type TableId = usize;

/// One table's metadata and storage.
#[derive(Debug, Clone)]
pub struct TableInfo {
    /// Table name.
    pub name: String,
    /// Column layout.
    pub schema: Schema,
    /// Row storage.
    pub heap: HeapFile,
    /// Primary-key index (keyed on `pk_col`), if built.
    pub pk_index: Option<BTree>,
    /// Which column the PK index covers.
    pub pk_col: Option<usize>,
    /// Secondary indexes: `(column, tree)`.
    pub secondary: Vec<(usize, BTree)>,
    /// Columnar image for the vectorized personality, built lazily at
    /// first `vec` attach and invalidated by DML/vacuum.
    pub columnar: Option<crate::colchunk::ColumnChunks>,
}

/// All tables of one database instance.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: Vec<TableInfo>,
    by_name: HashMap<String, TableId>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Register a table; returns its id. Replaces nothing — duplicate names
    /// are an error.
    pub fn create_table(&mut self, name: &str, schema: Schema) -> crate::Result<TableId> {
        if self.by_name.contains_key(name) {
            return Err(crate::StorageError::Schema("duplicate table name"));
        }
        let id = self.tables.len();
        self.tables.push(TableInfo {
            name: name.to_owned(),
            schema,
            heap: HeapFile::new(),
            pk_index: None,
            pk_col: None,
            secondary: Vec::new(),
            columnar: None,
        });
        self.by_name.insert(name.to_owned(), id);
        Ok(id)
    }

    /// Look a table up by name.
    pub fn table(&self, name: &str) -> crate::Result<&TableInfo> {
        let id = self
            .by_name
            .get(name)
            .ok_or_else(|| crate::StorageError::NoSuchTable(name.to_owned()))?;
        Ok(&self.tables[*id])
    }

    /// Mutable lookup by name.
    pub fn table_mut(&mut self, name: &str) -> crate::Result<&mut TableInfo> {
        let id = self
            .by_name
            .get(name)
            .ok_or_else(|| crate::StorageError::NoSuchTable(name.to_owned()))?;
        Ok(&mut self.tables[*id])
    }

    /// Id for a name.
    pub fn id_of(&self, name: &str) -> crate::Result<TableId> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| crate::StorageError::NoSuchTable(name.to_owned()))
    }

    /// All tables.
    pub fn tables(&self) -> &[TableInfo] {
        &self.tables
    }
}

impl TableInfo {
    /// The secondary index on `col`, if any.
    pub fn index_on(&self, col: usize) -> Option<&BTree> {
        if self.pk_col == Some(col) {
            return self.pk_index.as_ref();
        }
        self.secondary
            .iter()
            .find(|(c, _)| *c == col)
            .map(|(_, t)| t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Ty;

    #[test]
    fn create_and_lookup() {
        let mut cat = Catalog::new();
        let id = cat
            .create_table("users", Schema::new([("id", Ty::Int), ("name", Ty::Str)]))
            .unwrap();
        assert_eq!(cat.id_of("users").unwrap(), id);
        assert_eq!(cat.table("users").unwrap().schema.arity(), 2);
        assert!(cat.table("ghost").is_err());
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut cat = Catalog::new();
        cat.create_table("t", Schema::new([("a", Ty::Int)]))
            .unwrap();
        assert!(cat
            .create_table("t", Schema::new([("a", Ty::Int)]))
            .is_err());
    }
}
