//! Encoded sequences.

use crate::alphabet::{Alphabet, NOT_A_SYMBOL};
use crate::error::AlignError;

/// A sequence of alphabet-encoded symbols.
///
/// Stores one code per byte (the *packed* multi-symbol-per-word
/// representation used by the hardware lives in `smx-diffenc`; this type is
/// the canonical, validated in-memory form).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Sequence {
    alphabet: Alphabet,
    codes: Vec<u8>,
}

impl Sequence {
    /// Builds a sequence by encoding `text`.
    ///
    /// # Errors
    ///
    /// Returns [`AlignError::InvalidSymbol`] on the first character that is
    /// not part of `alphabet`.
    pub fn from_text(alphabet: Alphabet, text: &str) -> Result<Sequence, AlignError> {
        let table = alphabet.code_table();
        let mut codes = Vec::with_capacity(text.len());
        for (at, byte) in text.bytes().enumerate() {
            match table[usize::from(byte)] {
                // Every byte past ASCII is outside the table, so the first
                // refused byte starts the refused character.
                NOT_A_SYMBOL => {
                    let symbol = text.get(at..).and_then(|t| t.chars().next()).unwrap_or('\0');
                    return Err(AlignError::InvalidSymbol { symbol, alphabet: alphabet.name() });
                }
                code => codes.push(code),
            }
        }
        Ok(Sequence { alphabet, codes })
    }

    /// Builds a sequence from pre-encoded codes, validating each.
    ///
    /// # Errors
    ///
    /// Returns [`AlignError::InvalidCode`] on the first out-of-range code.
    pub fn from_codes(alphabet: Alphabet, codes: Vec<u8>) -> Result<Sequence, AlignError> {
        if let Some(&bad) = codes.iter().find(|&&c| !alphabet.is_valid_code(c)) {
            return Err(AlignError::InvalidCode { code: bad, alphabet: alphabet.name() });
        }
        Ok(Sequence { alphabet, codes })
    }

    /// The sequence's alphabet.
    #[must_use]
    pub fn alphabet(&self) -> Alphabet {
        self.alphabet
    }

    /// Encoded symbols.
    #[must_use]
    pub fn codes(&self) -> &[u8] {
        &self.codes
    }

    /// Number of symbols.
    #[must_use]
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether the sequence has no symbols.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Symbol code at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.len()`.
    #[must_use]
    pub fn code(&self, idx: usize) -> u8 {
        self.codes[idx]
    }

    /// Decodes back to text.
    #[must_use]
    pub fn to_text(&self) -> String {
        self.codes.iter().map(|&c| self.alphabet.decode(c).expect("codes are validated")).collect()
    }

    /// A sub-sequence covering `range` (clamped to the sequence length).
    #[must_use]
    pub fn subsequence(&self, range: std::ops::Range<usize>) -> Sequence {
        let start = range.start.min(self.codes.len());
        let end = range.end.min(self.codes.len()).max(start);
        Sequence { alphabet: self.alphabet, codes: self.codes[start..end].to_vec() }
    }

    /// The reverse of this sequence (used by Hirschberg's algorithm).
    #[must_use]
    pub fn reversed(&self) -> Sequence {
        let mut codes = self.codes.clone();
        codes.reverse();
        Sequence { alphabet: self.alphabet, codes }
    }

    /// Iterates over symbol codes.
    pub fn iter(&self) -> std::iter::Copied<std::slice::Iter<'_, u8>> {
        self.codes.iter().copied()
    }
}

impl std::fmt::Display for Sequence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_roundtrip() {
        let s = Sequence::from_text(Alphabet::Dna4, "ACGTN").unwrap();
        assert_eq!(s.len(), 5);
        assert_eq!(s.to_text(), "ACGTN");
        assert_eq!(s.codes(), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn invalid_text_rejected() {
        assert!(Sequence::from_text(Alphabet::Dna2, "ACGX").is_err());
    }

    #[test]
    fn from_text_matches_encoding_each_character() {
        for a in Alphabet::ALL {
            for text in
                ["acgtNRY", "ACGX", "AC\u{e9}GT", "\u{2192}", "HEAGAWGHEE*", "a\tb\u{7f}", ""]
            {
                let per_char: Result<Vec<u8>, AlignError> =
                    text.chars().map(|c| a.encode(c)).collect();
                let streamed = Sequence::from_text(a, text).map(|s| s.codes().to_vec());
                assert_eq!(streamed, per_char, "{a} {text:?}");
            }
        }
    }

    #[test]
    fn from_codes_validates() {
        assert!(Sequence::from_codes(Alphabet::Dna2, vec![0, 1, 4]).is_err());
        assert!(Sequence::from_codes(Alphabet::Dna2, vec![0, 1, 3]).is_ok());
    }

    #[test]
    fn subsequence_clamps() {
        let s = Sequence::from_text(Alphabet::Dna2, "ACGT").unwrap();
        assert_eq!(s.subsequence(1..3).to_text(), "CG");
        assert_eq!(s.subsequence(2..100).to_text(), "GT");
        assert_eq!(s.subsequence(5..9).to_text(), "");
    }

    #[test]
    fn reversed() {
        let s = Sequence::from_text(Alphabet::Dna2, "ACGT").unwrap();
        assert_eq!(s.reversed().to_text(), "TGCA");
    }

    #[test]
    fn display_matches_text() {
        let s = Sequence::from_text(Alphabet::Protein, "WYV").unwrap();
        assert_eq!(format!("{s}"), "WYV");
    }
}
