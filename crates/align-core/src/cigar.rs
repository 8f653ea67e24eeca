//! Alignment operations, CIGAR run-length representation, and validated
//! alignment results (paper §2.1, "alignment traceback").

use crate::error::AlignError;
use crate::scoring::ScoringScheme;

/// One alignment operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Both symbols equal (`=` in extended CIGAR).
    Match,
    /// Substitution (`X`).
    Mismatch,
    /// Extra query symbol (`I`); consumes query only.
    Insert,
    /// Extra reference symbol (`D`); consumes reference only.
    Delete,
}

impl Op {
    /// Extended-CIGAR character for this operation.
    #[must_use]
    pub fn symbol(self) -> char {
        match self {
            Op::Match => '=',
            Op::Mismatch => 'X',
            Op::Insert => 'I',
            Op::Delete => 'D',
        }
    }

    /// Whether the operation consumes a query symbol.
    #[must_use]
    pub fn consumes_query(self) -> bool {
        !matches!(self, Op::Delete)
    }

    /// Whether the operation consumes a reference symbol.
    #[must_use]
    pub fn consumes_reference(self) -> bool {
        !matches!(self, Op::Insert)
    }
}

/// A run-length-encoded sequence of alignment operations.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Cigar {
    runs: Vec<(Op, u32)>,
}

impl Cigar {
    /// An empty CIGAR.
    #[must_use]
    pub fn new() -> Cigar {
        Cigar::default()
    }

    /// An empty CIGAR with room for `runs` runs.
    #[must_use]
    pub fn with_capacity(runs: usize) -> Cigar {
        Cigar { runs: Vec::with_capacity(runs) }
    }

    /// Appends one operation, merging with the trailing run.
    pub fn push(&mut self, op: Op) {
        self.push_run(op, 1);
    }

    /// Appends `count` copies of `op`, merging with the trailing run.
    pub fn push_run(&mut self, op: Op, count: u32) {
        if count == 0 {
            return;
        }
        match self.runs.last_mut() {
            Some((last, n)) if *last == op => *n += count,
            _ => self.runs.push((op, count)),
        }
    }

    /// Appends all runs of `other` (used when stitching Hirschberg halves).
    pub fn extend_from(&mut self, other: &Cigar) {
        for &(op, n) in &other.runs {
            self.push_run(op, n);
        }
    }

    /// Reverses the operation order in place (tracebacks are produced
    /// end-to-start). This is a traceback's last step, so it also drops
    /// the spare capacity the pushes left: a batch keeps every result's
    /// CIGAR until the batch ends.
    pub fn reverse(&mut self) {
        self.runs.reverse();
        self.runs.shrink_to_fit();
    }

    /// Run-length view.
    #[must_use]
    pub fn runs(&self) -> &[(Op, u32)] {
        &self.runs
    }

    /// Iterates over individual operations (expanded from runs).
    pub fn iter_ops(&self) -> impl Iterator<Item = Op> + '_ {
        self.runs.iter().flat_map(|&(op, n)| std::iter::repeat_n(op, n as usize))
    }

    /// Total number of operations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.runs.iter().map(|&(_, n)| n as usize).sum()
    }

    /// Whether there are no operations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Number of query symbols consumed.
    #[must_use]
    pub fn query_len(&self) -> usize {
        self.runs.iter().filter(|(op, _)| op.consumes_query()).map(|&(_, n)| n as usize).sum()
    }

    /// Number of reference symbols consumed.
    #[must_use]
    pub fn reference_len(&self) -> usize {
        self.runs.iter().filter(|(op, _)| op.consumes_reference()).map(|&(_, n)| n as usize).sum()
    }

    /// Fraction of operations that are matches, in `[0, 1]`.
    #[must_use]
    pub fn identity(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let matches: usize =
            self.runs.iter().filter(|(op, _)| *op == Op::Match).map(|&(_, n)| n as usize).sum();
        matches as f64 / self.len() as f64
    }

    /// Scores this alignment against the given sequences and scheme,
    /// verifying that match/mismatch operations agree with the symbols.
    ///
    /// # Errors
    ///
    /// Returns [`AlignError::Internal`] if the CIGAR does not consume
    /// exactly the two sequences or labels a match/mismatch incorrectly.
    pub fn score(
        &self,
        query: &[u8],
        reference: &[u8],
        scheme: &ScoringScheme,
    ) -> Result<i32, AlignError> {
        let mut qi = 0usize;
        let mut rj = 0usize;
        let mut total = 0i64;
        for op in self.iter_ops() {
            match op {
                Op::Match | Op::Mismatch => {
                    let (a, b) = (
                        *query.get(qi).ok_or_else(|| overrun("query"))?,
                        *reference.get(rj).ok_or_else(|| overrun("reference"))?,
                    );
                    let is_match = a == b;
                    if is_match != (op == Op::Match) {
                        return Err(AlignError::Internal(format!(
                            "cigar mislabels position q[{qi}]/r[{rj}]"
                        )));
                    }
                    total += scheme.score(a, b) as i64;
                    qi += 1;
                    rj += 1;
                }
                Op::Insert => {
                    total += scheme.gap_insert() as i64;
                    qi += 1;
                }
                Op::Delete => {
                    total += scheme.gap_delete() as i64;
                    rj += 1;
                }
            }
        }
        if qi != query.len() || rj != reference.len() {
            return Err(AlignError::Internal(format!(
                "cigar consumes {qi}/{} query and {rj}/{} reference symbols",
                query.len(),
                reference.len()
            )));
        }
        Ok(total as i32)
    }
}

fn overrun(which: &str) -> AlignError {
    AlignError::Internal(format!("cigar overruns the {which} sequence"))
}

/// Operation counts of a CIGAR (for identity/coverage statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpStats {
    /// Matched positions.
    pub matches: u64,
    /// Mismatched positions.
    pub mismatches: u64,
    /// Inserted query characters.
    pub insertions: u64,
    /// Deleted reference characters.
    pub deletions: u64,
    /// Contiguous gap segments (insert or delete runs).
    pub gap_segments: u64,
}

impl Cigar {
    /// Parses an extended-CIGAR string (`"3=1X2I"`, `*` = empty).
    ///
    /// # Errors
    ///
    /// Returns [`AlignError::Internal`] describing the malformed token.
    pub fn parse(text: &str) -> Result<Cigar, AlignError> {
        let text = text.trim();
        if text == "*" || text.is_empty() {
            return Ok(Cigar::new());
        }
        let mut cigar = Cigar::new();
        let mut count: u64 = 0;
        let mut saw_digit = false;
        for c in text.chars() {
            if let Some(d) = c.to_digit(10) {
                count = count * 10 + u64::from(d);
                if count > u64::from(u32::MAX) {
                    return Err(AlignError::Internal("cigar run length overflows u32".into()));
                }
                saw_digit = true;
                continue;
            }
            if !saw_digit || count == 0 {
                return Err(AlignError::Internal(format!(
                    "cigar operation {c:?} needs a positive run length"
                )));
            }
            let op = match c {
                '=' => Op::Match,
                'X' => Op::Mismatch,
                'I' => Op::Insert,
                'D' => Op::Delete,
                other => {
                    return Err(AlignError::Internal(format!("unknown cigar operation {other:?}")))
                }
            };
            cigar.push_run(op, count as u32);
            count = 0;
            saw_digit = false;
        }
        if saw_digit {
            return Err(AlignError::Internal("trailing run length without operation".into()));
        }
        Ok(cigar)
    }

    /// Per-operation counts.
    #[must_use]
    pub fn stats(&self) -> OpStats {
        let mut s = OpStats::default();
        for &(op, n) in &self.runs {
            match op {
                Op::Match => s.matches += u64::from(n),
                Op::Mismatch => s.mismatches += u64::from(n),
                Op::Insert => {
                    s.insertions += u64::from(n);
                    s.gap_segments += 1;
                }
                Op::Delete => {
                    s.deletions += u64::from(n);
                    s.gap_segments += 1;
                }
            }
        }
        s
    }
}

impl std::str::FromStr for Cigar {
    type Err = AlignError;

    fn from_str(s: &str) -> Result<Cigar, AlignError> {
        Cigar::parse(s)
    }
}

impl std::fmt::Display for Cigar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.runs.is_empty() {
            return f.write_str("*");
        }
        for &(op, n) in &self.runs {
            write!(f, "{n}{}", op.symbol())?;
        }
        Ok(())
    }
}

impl FromIterator<Op> for Cigar {
    fn from_iter<T: IntoIterator<Item = Op>>(iter: T) -> Cigar {
        let mut c = Cigar::new();
        for op in iter {
            c.push(op);
        }
        c
    }
}

/// A scored alignment: the optimal score plus the operation path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alignment {
    /// Optimal alignment score under the scheme used to produce it.
    pub score: i32,
    /// The operation path from `(0, 0)` to `(m, n)`.
    pub cigar: Cigar,
}

impl Alignment {
    /// Verifies internal consistency: the CIGAR re-scores to `self.score`
    /// and consumes exactly the given sequences.
    ///
    /// # Errors
    ///
    /// Returns [`AlignError::Internal`] describing the inconsistency.
    pub fn verify(
        &self,
        query: &[u8],
        reference: &[u8],
        scheme: &ScoringScheme,
    ) -> Result<(), AlignError> {
        let rescored = self.cigar.score(query, reference, scheme)?;
        if rescored != self.score {
            return Err(AlignError::Internal(format!(
                "cigar re-scores to {rescored}, alignment claims {}",
                self.score
            )));
        }
        Ok(())
    }
}

impl std::fmt::Display for Alignment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "score={} cigar={}", self.score, self.cigar)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_merges_runs() {
        let mut c = Cigar::new();
        c.push(Op::Match);
        c.push(Op::Match);
        c.push(Op::Insert);
        c.push(Op::Match);
        assert_eq!(c.runs(), &[(Op::Match, 2), (Op::Insert, 1), (Op::Match, 1)]);
        assert_eq!(c.to_string(), "2=1I1=");
    }

    #[test]
    fn lengths() {
        let c: Cigar = [Op::Match, Op::Mismatch, Op::Insert, Op::Delete].into_iter().collect();
        assert_eq!(c.len(), 4);
        assert_eq!(c.query_len(), 3);
        assert_eq!(c.reference_len(), 3);
    }

    #[test]
    fn identity() {
        let c: Cigar = [Op::Match, Op::Match, Op::Mismatch, Op::Delete].into_iter().collect();
        assert!((c.identity() - 0.5).abs() < 1e-12);
        assert_eq!(Cigar::new().identity(), 0.0);
    }

    #[test]
    fn empty_display_is_star() {
        assert_eq!(Cigar::new().to_string(), "*");
    }

    #[test]
    fn score_edit_model() {
        // q = AC, r = AG: 1 match + 1 mismatch = -1 under edit.
        let c: Cigar = [Op::Match, Op::Mismatch].into_iter().collect();
        let s = c.score(&[0, 1], &[0, 2], &ScoringScheme::edit()).unwrap();
        assert_eq!(s, -1);
    }

    #[test]
    fn score_detects_mislabel() {
        let c: Cigar = [Op::Match].into_iter().collect();
        assert!(c.score(&[0], &[1], &ScoringScheme::edit()).is_err());
    }

    #[test]
    fn score_detects_underrun() {
        let c: Cigar = [Op::Match].into_iter().collect();
        assert!(c.score(&[0, 0], &[0], &ScoringScheme::edit()).is_err());
    }

    #[test]
    fn verify_checks_score() {
        let cigar: Cigar = [Op::Match].into_iter().collect();
        let good = Alignment { score: 0, cigar: cigar.clone() };
        good.verify(&[1], &[1], &ScoringScheme::edit()).unwrap();
        let bad = Alignment { score: 5, cigar };
        assert!(bad.verify(&[1], &[1], &ScoringScheme::edit()).is_err());
    }

    #[test]
    fn parse_roundtrip() {
        for text in ["3=1X2I4D", "1=", "*", "10=5I10="] {
            let c = Cigar::parse(text).unwrap();
            let expect = if text == "*" { "*".to_string() } else { text.to_string() };
            assert_eq!(c.to_string(), expect);
        }
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(Cigar::parse("=3").is_err());
        assert!(Cigar::parse("3M").is_err()); // plain M is ambiguous: rejected
        assert!(Cigar::parse("3").is_err());
        assert!(Cigar::parse("0=").is_err());
        assert!(Cigar::parse("99999999999=").is_err());
    }

    #[test]
    fn from_str_trait() {
        let c: Cigar = "2=1I".parse().unwrap();
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn stats_count_segments() {
        let c = Cigar::parse("5=1X3I2=2D1D").unwrap();
        let s = c.stats();
        assert_eq!(s.matches, 7);
        assert_eq!(s.mismatches, 1);
        assert_eq!(s.insertions, 3);
        assert_eq!(s.deletions, 3);
        // 3I is one segment; 2D and 1D merge into one run (2D1D -> 3D).
        assert_eq!(s.gap_segments, 2);
    }

    #[test]
    fn extend_and_reverse() {
        let mut a: Cigar = [Op::Match, Op::Insert].into_iter().collect();
        let b: Cigar = [Op::Insert, Op::Delete].into_iter().collect();
        a.extend_from(&b);
        assert_eq!(a.to_string(), "1=2I1D");
        a.reverse();
        assert_eq!(a.to_string(), "1D2I1=");
    }
}
