//! Target-table crate: registers the repository-level examples/ and tests/ directories (see README.md).
