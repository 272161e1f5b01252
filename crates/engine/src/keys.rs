//! Interned fixed-width join/group keys.
//!
//! Hashing a `Vec<Value>` per row (the executor's original key
//! representation) allocates a vector and clones every string cell on every
//! row. This module instead encodes each key column into one `u64` *code*
//! per row such that two rows carry equal codes iff their key tuples are
//! equal under the engine's grouping equality (`Value::total_cmp ==
//! Equal`), then folds multi-column codes into a single `u64` by pairwise
//! interning. Hash tables downstream are plain `HashMap<u64, _>` — no
//! per-row allocation, one integer hash per probe.
//!
//! Encodings per column-type pairing:
//! - `Int` vs `Int`: the raw `i64` bit pattern (exact);
//! - any pairing involving `Float`: `(v as f64).to_bits()` — exact for
//!   floats under `total_cmp` (IEEE total order ⇔ bit identity), and it
//!   makes `Int(2)` meet `Float(2.0)` just like `Value` equality does.
//!   Integers beyond 2^53 that collide in `f64` merge here; the legacy
//!   `Vec<Value>` path left their lookup order unspecified, so this corner
//!   is now strictly better defined;
//! - `Str` vs `Str`: dictionary ids handed out by [`KeyInterner`]. The
//!   build/owner side inserts; probe sides only look up, and a miss means
//!   the row cannot match any build row;
//! - `Str` vs numeric: never equal — callers short-circuit the join.

use crate::batch::Column;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative hasher for keys that are already well-mixed integer codes
/// (interned key codes, fingerprints). SipHash — `HashMap`'s default —
/// burns a large share of join/aggregate time for zero benefit here: codes
/// are not attacker-controlled. One `wrapping_mul` by a golden-ratio odd
/// constant plus an xor-shift gives well-distributed low bits (hashbrown
/// indexes with them) at a fraction of the cost.
#[derive(Debug, Default, Clone, Copy)]
pub struct CodeHasher(u64);

impl Hasher for CodeHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Fallback for non-integer fields (FNV-1a); integer keys use the
        // specialized methods below.
        let mut h = self.0 ^ 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }

    fn write_u64(&mut self, n: u64) {
        let h = (self.0.rotate_left(32) ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 29);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// `HashMap` keyed by integer codes, using [`CodeHasher`].
pub type CodeMap<K, V> = HashMap<K, V, BuildHasherDefault<CodeHasher>>;

/// Dictionaries shared by every key column of one operator: string → id and
/// (code, code) → combined id for multi-column keys. Ids are dense, so a
/// combined key always stays one `u64` regardless of column count.
#[derive(Debug, Default)]
pub struct KeyInterner {
    strs: HashMap<String, u64>,
    pairs: CodeMap<(u64, u64), u64>,
    /// Running approximate heap footprint, maintained on insert so metering
    /// never has to walk the maps.
    bytes: usize,
}

impl KeyInterner {
    pub fn new() -> KeyInterner {
        KeyInterner::default()
    }

    fn str_insert(&mut self, s: &str) -> u64 {
        if let Some(&id) = self.strs.get(s) {
            return id;
        }
        let id = self.strs.len() as u64;
        self.bytes += s.len() + 56; // owned string + entry overhead
        self.strs.insert(s.to_string(), id);
        id
    }

    fn str_get(&self, s: &str) -> Option<u64> {
        self.strs.get(s).copied()
    }

    fn pair_insert(&mut self, a: u64, b: u64) -> u64 {
        if let Some(&id) = self.pairs.get(&(a, b)) {
            return id;
        }
        let id = self.pairs.len() as u64;
        self.bytes += 32; // two-u64 key + id + entry overhead
        self.pairs.insert((a, b), id);
        id
    }

    fn pair_get(&self, a: u64, b: u64) -> Option<u64> {
        self.pairs.get(&(a, b)).copied()
    }

    /// Approximate heap bytes held by the dictionaries (for cost metering).
    pub fn approx_bytes(&self) -> usize {
        self.bytes
    }
}

/// One key column prepared for encoding.
#[derive(Debug, Clone, Copy)]
pub enum KeyCol<'a> {
    /// Exact `i64` bit-pattern codes.
    Int(&'a [i64]),
    /// `f64` total-order bit codes.
    Float(&'a [f64]),
    /// Integer column keyed against a float column: numeric (`f64`) codes.
    IntAsFloat(&'a [i64]),
    /// String column: dictionary codes.
    Str(&'a [String]),
}

impl<'a> KeyCol<'a> {
    /// View a column as a key column. `as_float` forces numeric (`f64`)
    /// codes, required when the opposite join side is a float column.
    pub fn of(col: &'a Column, as_float: bool) -> KeyCol<'a> {
        match col {
            Column::Int(d) if as_float => KeyCol::IntAsFloat(d),
            Column::Int(d) => KeyCol::Int(d),
            Column::Float(d) => KeyCol::Float(d),
            Column::Str(d) => KeyCol::Str(d),
        }
    }

    fn code_insert(&self, row: usize, interner: &mut KeyInterner) -> u64 {
        match self {
            KeyCol::Int(d) => d[row] as u64,
            KeyCol::Float(d) => d[row].to_bits(),
            KeyCol::IntAsFloat(d) => (d[row] as f64).to_bits(),
            KeyCol::Str(d) => interner.str_insert(&d[row]),
        }
    }

    fn code_get(&self, row: usize, interner: &KeyInterner) -> Option<u64> {
        match self {
            KeyCol::Int(d) => Some(d[row] as u64),
            KeyCol::Float(d) => Some(d[row].to_bits()),
            KeyCol::IntAsFloat(d) => Some((d[row] as f64).to_bits()),
            KeyCol::Str(d) => interner.str_get(&d[row]),
        }
    }
}

/// Encode every row of the owning side (hash-table build side, or the whole
/// batch for aggregation), inserting fresh values into the interner. An
/// empty column list encodes every row to the same key (cross join / global
/// group). A lone numeric column encodes in one typed pass, with the codes
/// [`KeyCol::code_insert`] gives per row.
pub fn encode_rows(cols: &[KeyCol<'_>], rows: usize, interner: &mut KeyInterner) -> Vec<u64> {
    match cols {
        [KeyCol::Int(d)] => return d[..rows].iter().map(|&v| v as u64).collect(),
        [KeyCol::Float(d)] => return d[..rows].iter().map(|v| v.to_bits()).collect(),
        [KeyCol::IntAsFloat(d)] => {
            return d[..rows].iter().map(|&v| (v as f64).to_bits()).collect()
        }
        _ => {}
    }
    let mut out = Vec::with_capacity(rows);
    for row in 0..rows {
        out.push(match cols.split_first() {
            None => 0,
            Some((first, rest)) => {
                let mut acc = first.code_insert(row, interner);
                for c in rest {
                    let code = c.code_insert(row, interner);
                    acc = interner.pair_insert(acc, code);
                }
                acc
            }
        });
    }
    out
}

/// Encode one probe-side row against a frozen interner. `None` means some
/// component (a string, or a column combination) never occurred on the build
/// side, so the row cannot match.
pub fn probe_code(cols: &[KeyCol<'_>], row: usize, interner: &KeyInterner) -> Option<u64> {
    let (first, rest) = match cols.split_first() {
        None => return Some(0),
        Some(parts) => parts,
    };
    let mut acc = first.code_get(row, interner)?;
    for c in rest {
        let code = c.code_get(row, interner)?;
        acc = interner.pair_get(acc, code)?;
    }
    Some(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_codes_are_exact() {
        let col = Column::Int(vec![i64::MIN, -1, 0, 1, i64::MAX]);
        let mut it = KeyInterner::new();
        let codes = encode_rows(&[KeyCol::of(&col, false)], 5, &mut it);
        let distinct: std::collections::HashSet<u64> = codes.iter().copied().collect();
        assert_eq!(distinct.len(), 5);
    }

    #[test]
    fn single_numeric_column_codes_match_the_per_row_codes() {
        let ints = Column::Int(vec![i64::MIN, -3, 0, 7, i64::MAX, 7]);
        let floats = Column::Float(vec![-0.0, 0.0, 1.5, f64::NAN, f64::NEG_INFINITY, 1.5]);
        let cols = [
            KeyCol::of(&ints, false),
            KeyCol::of(&ints, true),
            KeyCol::of(&floats, false),
        ];
        for col in cols {
            let mut it = KeyInterner::new();
            let per_row: Vec<u64> = (0..6).map(|r| col.code_insert(r, &mut it)).collect();
            assert_eq!(encode_rows(&[col], 6, &mut it), per_row, "{col:?}");
            assert_eq!(it.approx_bytes(), 0, "numeric codes intern nothing");
        }
    }

    #[test]
    fn int_meets_float_numerically() {
        let ints = Column::Int(vec![2, 3]);
        let floats = Column::Float(vec![2.0, 4.0]);
        let mut it = KeyInterner::new();
        let build = encode_rows(&[KeyCol::of(&ints, true)], 2, &mut it);
        let probe0 = probe_code(&[KeyCol::of(&floats, false)], 0, &it).unwrap();
        let probe1 = probe_code(&[KeyCol::of(&floats, false)], 1, &it).unwrap();
        assert_eq!(probe0, build[0], "Int(2) must meet Float(2.0)");
        assert!(!build.contains(&probe1), "Float(4.0) matches nothing");
    }

    #[test]
    fn probe_misses_unseen_strings() {
        let build = Column::str(vec!["a".into(), "b".into(), "a".into()]);
        let probe = Column::str(vec!["b".into(), "z".into()]);
        let mut it = KeyInterner::new();
        let bcodes = encode_rows(&[KeyCol::of(&build, false)], 3, &mut it);
        assert_eq!(bcodes[0], bcodes[2], "repeated strings share one id");
        let pcols = [KeyCol::of(&probe, false)];
        assert_eq!(probe_code(&pcols, 0, &it), Some(bcodes[1]));
        assert_eq!(
            probe_code(&pcols, 1, &it),
            None,
            "unseen string cannot match"
        );
    }

    #[test]
    fn multi_column_keys_separate_and_match() {
        let a = Column::Int(vec![1, 1, 2]);
        let b = Column::str(vec!["x".into(), "y".into(), "x".into()]);
        let mut it = KeyInterner::new();
        let cols = [KeyCol::of(&a, false), KeyCol::of(&b, false)];
        let codes = encode_rows(&cols, 3, &mut it);
        assert_ne!(codes[0], codes[1]);
        assert_ne!(codes[0], codes[2]);
        assert_ne!(codes[1], codes[2]);
        // Probing an existing combination finds the same code; a fresh
        // combination of seen components misses at the pair level.
        assert_eq!(probe_code(&cols, 0, &it), Some(codes[0]));
        let a2 = Column::Int(vec![2]);
        let b2 = Column::str(vec!["y".into()]);
        let fresh = [KeyCol::of(&a2, false), KeyCol::of(&b2, false)];
        assert_eq!(probe_code(&fresh, 0, &it), None);
    }

    #[test]
    fn empty_key_list_is_a_single_group() {
        let mut it = KeyInterner::new();
        assert_eq!(encode_rows(&[], 3, &mut it), vec![0, 0, 0]);
        assert_eq!(probe_code(&[], 0, &it), Some(0));
    }

    #[test]
    fn interner_tracks_bytes() {
        let mut it = KeyInterner::new();
        assert_eq!(it.approx_bytes(), 0);
        it.str_insert("hello");
        let after_one = it.approx_bytes();
        assert!(after_one > 0);
        it.str_insert("hello"); // repeat: no growth
        assert_eq!(it.approx_bytes(), after_one);
        it.pair_insert(0, 1);
        assert!(it.approx_bytes() > after_one);
    }
}
