//! The [`DataFrame`] type.

use crate::column::{Column, ColumnType};
use std::collections::BTreeMap;

/// Errors from dataframe operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// A column with this name already exists.
    DuplicateColumn(String),
    /// Column length disagrees with the frame's row count.
    LengthMismatch {
        /// The offending column.
        column: String,
        /// Its length.
        got: usize,
        /// The frame's row count.
        expected: usize,
    },
    /// No column with this name.
    NoSuchColumn(String),
    /// Column exists but has the wrong kind for the operation.
    WrongType {
        /// The offending column.
        column: String,
        /// The kind the operation required.
        expected: ColumnType,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::DuplicateColumn(c) => write!(f, "duplicate column '{c}'"),
            FrameError::LengthMismatch { column, got, expected } => {
                write!(f, "column '{column}' has {got} rows, frame has {expected}")
            }
            FrameError::NoSuchColumn(c) => write!(f, "no column named '{c}'"),
            FrameError::WrongType { column, expected } => {
                write!(f, "column '{column}' is not {expected:?}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// A column-oriented table with named numeric and categorical columns.
#[derive(Clone, Debug, Default)]
pub struct DataFrame {
    names: Vec<String>,
    columns: Vec<Column>,
}

impl DataFrame {
    /// An empty frame (no columns, no rows).
    pub fn new() -> Self {
        DataFrame::default()
    }

    /// Adds a numeric column.
    ///
    /// # Errors
    /// Fails on duplicate name or row-count mismatch with existing columns.
    pub fn push_numeric(
        &mut self,
        name: impl Into<String>,
        values: Vec<f64>,
    ) -> Result<(), FrameError> {
        self.push_column(name.into(), Column::Numeric(values))
    }

    /// Adds a categorical column from string labels.
    ///
    /// # Errors
    /// Fails on duplicate name or row-count mismatch with existing columns.
    pub fn push_categorical<S: AsRef<str>>(
        &mut self,
        name: impl Into<String>,
        labels: &[S],
    ) -> Result<(), FrameError> {
        self.push_column(name.into(), Column::categorical_from_labels(labels))
    }

    /// Adds a prebuilt column.
    ///
    /// # Errors
    /// Fails on duplicate name or row-count mismatch with existing columns.
    pub fn push_column(&mut self, name: String, col: Column) -> Result<(), FrameError> {
        if self.names.contains(&name) {
            return Err(FrameError::DuplicateColumn(name));
        }
        if !self.columns.is_empty() && col.len() != self.n_rows() {
            return Err(FrameError::LengthMismatch {
                column: name,
                got: col.len(),
                expected: self.n_rows(),
            });
        }
        self.names.push(name);
        self.columns.push(col);
        Ok(())
    }

    /// Number of rows (0 when no columns).
    pub fn n_rows(&self) -> usize {
        self.columns.first().map_or(0, Column::len)
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    /// Column names in insertion order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Index of a named column.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// Borrow of a named column.
    ///
    /// # Errors
    /// Fails when the column does not exist.
    pub fn column(&self, name: &str) -> Result<&Column, FrameError> {
        self.column_index(name)
            .map(|i| &self.columns[i])
            .ok_or_else(|| FrameError::NoSuchColumn(name.to_owned()))
    }

    /// Borrow of a named numeric column's values.
    ///
    /// # Errors
    /// Fails when missing or non-numeric.
    pub fn numeric(&self, name: &str) -> Result<&[f64], FrameError> {
        self.column(name)?.as_numeric().ok_or_else(|| FrameError::WrongType {
            column: name.to_owned(),
            expected: ColumnType::Numeric,
        })
    }

    /// Borrow of a named categorical column as `(codes, dict)`.
    ///
    /// # Errors
    /// Fails when missing or non-categorical.
    pub fn categorical(&self, name: &str) -> Result<(&[u32], &[String]), FrameError> {
        self.column(name)?.as_categorical().ok_or_else(|| FrameError::WrongType {
            column: name.to_owned(),
            expected: ColumnType::Categorical,
        })
    }

    /// Names of all numeric columns, in order.
    pub fn numeric_names(&self) -> Vec<&str> {
        self.names
            .iter()
            .zip(&self.columns)
            .filter(|(_, c)| c.column_type() == ColumnType::Numeric)
            .map(|(n, _)| n.as_str())
            .collect()
    }

    /// Names of all categorical columns, in order.
    pub fn categorical_names(&self) -> Vec<&str> {
        self.names
            .iter()
            .zip(&self.columns)
            .filter(|(_, c)| c.column_type() == ColumnType::Categorical)
            .map(|(n, _)| n.as_str())
            .collect()
    }

    /// Materializes rows over the named numeric columns: row i is
    /// `[col0[i], col1[i], …]`. This is the tuple view the synthesis
    /// algorithm consumes ("drop all non-numerical attributes", Alg. 1 L1).
    ///
    /// # Errors
    /// Fails when any named column is missing or non-numeric.
    pub fn numeric_rows(&self, names: &[&str]) -> Result<Vec<Vec<f64>>, FrameError> {
        let cols: Vec<&[f64]> = names.iter().map(|n| self.numeric(n)).collect::<Result<_, _>>()?;
        let n = self.n_rows();
        let mut rows = Vec::with_capacity(n);
        for i in 0..n {
            rows.push(cols.iter().map(|c| c[i]).collect());
        }
        Ok(rows)
    }

    /// Single row over the named numeric columns.
    ///
    /// # Errors
    /// Fails when any named column is missing or non-numeric.
    pub fn numeric_row(&self, names: &[&str], i: usize) -> Result<Vec<f64>, FrameError> {
        names.iter().map(|n| self.numeric(n).map(|c| c[i])).collect()
    }

    /// Zero-copy row view over the named numeric columns — the iteration
    /// surface the synthesis engine consumes. Unlike [`Self::numeric_rows`]
    /// it materializes nothing: rows are read straight out of the column
    /// storage, and [`NumericView::chunks`] exposes the aligned row-range
    /// chunking that sharded synthesis parallelizes over.
    ///
    /// # Errors
    /// Fails when any named column is missing or non-numeric.
    pub fn numeric_view<'a>(&'a self, names: &[&str]) -> Result<NumericView<'a>, FrameError> {
        let cols: Vec<&'a [f64]> =
            names.iter().map(|n| self.numeric(n)).collect::<Result<_, _>>()?;
        Ok(NumericView { n_rows: self.n_rows(), cols })
    }

    /// Row-subset copy.
    pub fn take(&self, indices: &[usize]) -> DataFrame {
        DataFrame {
            names: self.names.clone(),
            columns: self.columns.iter().map(|c| c.take(indices)).collect(),
        }
    }

    /// Rows where `pred(i)` holds.
    pub fn filter_by_index(&self, pred: impl Fn(usize) -> bool) -> DataFrame {
        let idx: Vec<usize> = (0..self.n_rows()).filter(|&i| pred(i)).collect();
        self.take(&idx)
    }

    /// Copy without the named column (e.g. dropping the prediction target
    /// before learning constraints, as in the Fig-4 experiment).
    ///
    /// # Errors
    /// Fails when the column does not exist.
    pub fn drop_column(&self, name: &str) -> Result<DataFrame, FrameError> {
        let i = self.column_index(name).ok_or_else(|| FrameError::NoSuchColumn(name.to_owned()))?;
        let mut names = self.names.clone();
        let mut columns = self.columns.clone();
        names.remove(i);
        columns.remove(i);
        Ok(DataFrame { names, columns })
    }

    /// Partitions row indices by the values of a categorical column,
    /// returning `label → indices` in dictionary order. This is §4.2's
    /// horizontal partitioning.
    ///
    /// # Errors
    /// Fails when the column is missing or non-categorical.
    pub fn partition_by(&self, name: &str) -> Result<Vec<(String, Vec<usize>)>, FrameError> {
        let (codes, dict) = self.categorical(name)?;
        let mut buckets: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        for (i, &c) in codes.iter().enumerate() {
            buckets.entry(c).or_default().push(i);
        }
        Ok(buckets.into_iter().map(|(code, idx)| (dict[code as usize].clone(), idx)).collect())
    }

    /// Vertically concatenates another frame with the same schema (names,
    /// kinds, order).
    ///
    /// # Errors
    /// Fails on schema mismatch.
    pub fn vstack(&self, other: &DataFrame) -> Result<DataFrame, FrameError> {
        if self.names != other.names {
            return Err(FrameError::NoSuchColumn(format!(
                "schema mismatch: {:?} vs {:?}",
                self.names, other.names
            )));
        }
        let mut out = self.clone();
        for (mine, theirs) in out.columns.iter_mut().zip(&other.columns) {
            if mine.column_type() != theirs.column_type() {
                return Err(FrameError::WrongType {
                    column: "vstack".into(),
                    expected: mine.column_type(),
                });
            }
            mine.append(theirs);
        }
        Ok(out)
    }
}

/// Borrowed row-oriented view over a set of numeric columns.
///
/// Created by [`DataFrame::numeric_view`]. Row `i` is
/// `[col0[i], col1[i], …]`; [`Self::fill_row`] writes it into a caller
/// buffer so tight loops allocate nothing.
#[derive(Clone, Debug)]
pub struct NumericView<'a> {
    n_rows: usize,
    cols: Vec<&'a [f64]>,
}

impl NumericView<'_> {
    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns (the tuple arity).
    pub fn dim(&self) -> usize {
        self.cols.len()
    }

    /// Writes row `i` into `buf`.
    ///
    /// # Panics
    /// Panics when `buf.len() != dim()` or `i` is out of range.
    #[inline]
    pub fn fill_row(&self, i: usize, buf: &mut [f64]) {
        assert_eq!(buf.len(), self.cols.len(), "fill_row: buffer arity mismatch");
        for (slot, col) in buf.iter_mut().zip(&self.cols) {
            *slot = col[i];
        }
    }

    /// Materializes row `i`.
    pub fn row(&self, i: usize) -> Vec<f64> {
        self.cols.iter().map(|c| c[i]).collect()
    }

    /// Row-index ranges of at most `chunk_rows` rows, in order. The last
    /// chunk may be short. `chunk_rows` must be positive.
    pub fn chunks(&self, chunk_rows: usize) -> Vec<std::ops::Range<usize>> {
        assert!(chunk_rows > 0, "chunks: chunk_rows must be positive");
        (0..self.n_rows)
            .step_by(chunk_rows)
            .map(|start| start..(start + chunk_rows).min(self.n_rows))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DataFrame {
        let mut df = DataFrame::new();
        df.push_numeric("x", vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        df.push_numeric("y", vec![10.0, 20.0, 30.0, 40.0]).unwrap();
        df.push_categorical("g", &["a", "b", "a", "b"]).unwrap();
        df
    }

    #[test]
    fn shape_and_names() {
        let df = sample();
        assert_eq!(df.n_rows(), 4);
        assert_eq!(df.n_cols(), 3);
        assert_eq!(df.numeric_names(), vec!["x", "y"]);
        assert_eq!(df.categorical_names(), vec!["g"]);
    }

    #[test]
    fn duplicate_and_mismatch_rejected() {
        let mut df = sample();
        assert!(matches!(df.push_numeric("x", vec![0.0; 4]), Err(FrameError::DuplicateColumn(_))));
        assert!(matches!(
            df.push_numeric("z", vec![0.0; 3]),
            Err(FrameError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn numeric_rows_view() {
        let df = sample();
        let rows = df.numeric_rows(&["x", "y"]).unwrap();
        assert_eq!(rows[2], vec![3.0, 30.0]);
        let r = df.numeric_row(&["y"], 1).unwrap();
        assert_eq!(r, vec![20.0]);
    }

    #[test]
    fn zero_copy_view_matches_materialized() {
        let df = sample();
        let view = df.numeric_view(&["y", "x"]).unwrap();
        assert_eq!(view.n_rows(), 4);
        assert_eq!(view.dim(), 2);
        let mut buf = [0.0; 2];
        for i in 0..view.n_rows() {
            view.fill_row(i, &mut buf);
            assert_eq!(buf.to_vec(), view.row(i));
            assert_eq!(buf[0], df.numeric("y").unwrap()[i]);
            assert_eq!(buf[1], df.numeric("x").unwrap()[i]);
        }
        assert!(df.numeric_view(&["x", "g"]).is_err());
        assert!(df.numeric_view(&["nope"]).is_err());
    }

    #[test]
    fn view_chunks_cover_rows() {
        let df = sample();
        let view = df.numeric_view(&["x"]).unwrap();
        let chunks = view.chunks(3);
        assert_eq!(chunks, vec![0..3, 3..4]);
        let all = view.chunks(100);
        assert_eq!(all, vec![0..4]);
    }

    #[test]
    fn wrong_type_errors() {
        let df = sample();
        assert!(matches!(df.numeric("g"), Err(FrameError::WrongType { .. })));
        assert!(matches!(df.categorical("x"), Err(FrameError::WrongType { .. })));
        assert!(matches!(df.numeric("nope"), Err(FrameError::NoSuchColumn(_))));
    }

    #[test]
    fn take_and_filter() {
        let df = sample();
        let sub = df.take(&[0, 2]);
        assert_eq!(sub.n_rows(), 2);
        assert_eq!(sub.numeric("x").unwrap(), &[1.0, 3.0]);
        let f = df.filter_by_index(|i| i % 2 == 1);
        assert_eq!(f.numeric("x").unwrap(), &[2.0, 4.0]);
    }

    #[test]
    fn drop_column_works() {
        let df = sample().drop_column("y").unwrap();
        assert_eq!(df.n_cols(), 2);
        assert!(df.column("y").is_err());
        assert!(sample().drop_column("nope").is_err());
    }

    #[test]
    fn partition_by_groups() {
        let df = sample();
        let parts = df.partition_by("g").unwrap();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0], ("a".to_string(), vec![0, 2]));
        assert_eq!(parts[1], ("b".to_string(), vec![1, 3]));
    }

    #[test]
    fn vstack_same_schema() {
        let df = sample();
        let both = df.vstack(&df).unwrap();
        assert_eq!(both.n_rows(), 8);
        assert_eq!(both.numeric("x").unwrap()[4], 1.0);
        let (codes, dict) = both.categorical("g").unwrap();
        assert_eq!(dict.len(), 2);
        assert_eq!(codes.len(), 8);
    }

    #[test]
    fn vstack_schema_mismatch() {
        let df = sample();
        let other = df.drop_column("y").unwrap();
        assert!(df.vstack(&other).is_err());
    }

    #[test]
    fn empty_frame() {
        let df = DataFrame::new();
        assert_eq!(df.n_rows(), 0);
        assert_eq!(df.n_cols(), 0);
    }
}
