//! Sequence alphabets and their packed encodings.
//!
//! SMX supports four configurations (paper §7): 2-bit DNA (edit model),
//! 4-bit DNA (gap model), 6-bit protein (substitution matrices), and 8-bit
//! ASCII text. The alphabet determines both the symbol encoding width and
//! the DP-element width (`EW`) used by the hardware.

use crate::error::AlignError;

/// A sequence alphabet with a fixed-width binary encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Alphabet {
    /// `{A, C, G, T}` packed in 2 bits. Used by the DNA-edit configuration.
    Dna2,
    /// `{A, C, G, T, N, ...}` packed in 4 bits (IUPAC subset). Used by the
    /// DNA-gap configuration.
    Dna4,
    /// The 26-letter amino-acid alphabet (`A`–`Z`, including ambiguity
    /// codes) packed in 6 bits. Used by the protein configuration.
    Protein,
    /// 7-bit ASCII text (8-bit element width). Used by the ASCII-edit
    /// configuration.
    Ascii,
}

impl Alphabet {
    /// All alphabets, in EW order.
    pub const ALL: [Alphabet; 4] =
        [Alphabet::Dna2, Alphabet::Dna4, Alphabet::Protein, Alphabet::Ascii];

    /// Bits used to encode one symbol (2, 4, 6, or 8).
    #[must_use]
    pub fn bits(self) -> u8 {
        match self {
            Alphabet::Dna2 => 2,
            Alphabet::Dna4 => 4,
            Alphabet::Protein => 6,
            Alphabet::Ascii => 8,
        }
    }

    /// Number of distinct symbols representable.
    #[must_use]
    pub fn cardinality(self) -> usize {
        match self {
            Alphabet::Dna2 => 4,
            Alphabet::Dna4 => 16,
            Alphabet::Protein => 26,
            Alphabet::Ascii => 128,
        }
    }

    /// Short lowercase name, used in errors and harness output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Alphabet::Dna2 => "dna2",
            Alphabet::Dna4 => "dna4",
            Alphabet::Protein => "protein",
            Alphabet::Ascii => "ascii",
        }
    }

    /// Encodes `symbol` into its code point.
    ///
    /// # Errors
    ///
    /// Returns [`AlignError::InvalidSymbol`] if the character is not part of
    /// this alphabet (lowercase nucleotides/amino acids are accepted and
    /// normalized to uppercase).
    pub fn encode(self, symbol: char) -> Result<u8, AlignError> {
        let code = u8::try_from(symbol).map_or(NOT_A_SYMBOL, |b| self.code_table()[usize::from(b)]);
        if code == NOT_A_SYMBOL {
            return Err(AlignError::InvalidSymbol { symbol, alphabet: self.name() });
        }
        Ok(code)
    }

    /// The encode table: entry `b` is [`Alphabet::encode_byte`] of byte
    /// `b`, or [`NOT_A_SYMBOL`] outside the alphabet (every byte past
    /// ASCII included). Built at compile time.
    #[must_use]
    pub(crate) fn code_table(self) -> &'static [u8; 256] {
        &CODE_TABLES[self as usize]
    }

    /// Encodes one ASCII byte exactly as [`Alphabet::encode`] encodes the
    /// character, or `None` when it is not part of this alphabet. A
    /// `const fn`, so compile-time tables (`smx.pack`'s) derive from it.
    #[must_use]
    pub const fn encode_byte(self, byte: u8) -> Option<u8> {
        let up = byte.to_ascii_uppercase();
        match self {
            Alphabet::Dna2 | Alphabet::Dna4 => {
                let count = if matches!(self, Alphabet::Dna2) { 4 } else { NUCLEOTIDES.len() };
                let mut code = 0;
                while code < count {
                    if NUCLEOTIDES[code] == up {
                        return Some(code as u8);
                    }
                    code += 1;
                }
                None
            }
            Alphabet::Protein if up.is_ascii_uppercase() => Some(up - b'A'),
            Alphabet::Ascii if byte.is_ascii() => Some(byte),
            _ => None,
        }
    }

    /// Decodes a code point back into its character.
    ///
    /// # Errors
    ///
    /// Returns [`AlignError::InvalidCode`] if `code` is out of range.
    pub fn decode(self, code: u8) -> Result<char, AlignError> {
        if self.is_valid_code(code) {
            Ok(char::from(self.ascii_table()[usize::from(code)]))
        } else {
            Err(AlignError::InvalidCode { code, alphabet: self.name() })
        }
    }

    /// The decode table: entry `c` is the ASCII byte of code `c`, and `0`
    /// (NUL) for every code outside the alphabet. Built at compile time.
    #[must_use]
    pub fn ascii_table(self) -> &'static [u8; 256] {
        &ASCII_TABLES[self as usize]
    }

    /// Whether `code` is in range for this alphabet.
    #[must_use]
    pub fn is_valid_code(self, code: u8) -> bool {
        (code as usize) < self.cardinality()
    }
}

/// The IUPAC nucleotide letters in `Dna4` code order; `Dna2` codes the
/// first four.
const NUCLEOTIDES: &[u8; 16] = b"ACGTNRYSWKMBDHVU";

/// The encode tables' entry for a byte outside the alphabet.
pub(crate) const NOT_A_SYMBOL: u8 = u8::MAX;

/// Every alphabet's encode table, in [`Alphabet::ALL`] order.
static CODE_TABLES: [[u8; 256]; 4] = [
    code_table(Alphabet::Dna2),
    code_table(Alphabet::Dna4),
    code_table(Alphabet::Protein),
    code_table(Alphabet::Ascii),
];

const fn code_table(alphabet: Alphabet) -> [u8; 256] {
    let mut table = [NOT_A_SYMBOL; 256];
    let mut byte = 0;
    while byte < table.len() {
        if let Some(code) = alphabet.encode_byte(byte as u8) {
            table[byte] = code;
        }
        byte += 1;
    }
    table
}

/// Every alphabet's decode table, in [`Alphabet::ALL`] order.
static ASCII_TABLES: [[u8; 256]; 4] = [
    ascii_table(Alphabet::Dna2),
    ascii_table(Alphabet::Dna4),
    ascii_table(Alphabet::Protein),
    ascii_table(Alphabet::Ascii),
];

const fn ascii_table(alphabet: Alphabet) -> [u8; 256] {
    let mut table = [0u8; 256];
    let mut code = 0;
    while code < table.len() {
        table[code] = match alphabet {
            Alphabet::Dna2 if code < 4 => NUCLEOTIDES[code],
            Alphabet::Dna4 if code < NUCLEOTIDES.len() => NUCLEOTIDES[code],
            Alphabet::Protein if code < 26 => b'A' + code as u8,
            Alphabet::Ascii if code < 128 => code as u8,
            _ => 0,
        };
        code += 1;
    }
    table
}

impl std::fmt::Display for Alphabet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dna2_roundtrip() {
        for (i, c) in "ACGT".chars().enumerate() {
            assert_eq!(Alphabet::Dna2.encode(c).unwrap(), i as u8);
            assert_eq!(Alphabet::Dna2.decode(i as u8).unwrap(), c);
        }
    }

    #[test]
    fn dna2_rejects_n() {
        assert!(matches!(Alphabet::Dna2.encode('N'), Err(AlignError::InvalidSymbol { .. })));
    }

    #[test]
    fn dna4_accepts_iupac() {
        for c in "ACGTNRYSWKMBDHVU".chars() {
            let code = Alphabet::Dna4.encode(c).unwrap();
            assert_eq!(Alphabet::Dna4.decode(code).unwrap(), c);
        }
    }

    #[test]
    fn lowercase_normalized() {
        assert_eq!(Alphabet::Dna2.encode('a').unwrap(), 0);
        assert_eq!(Alphabet::Protein.encode('w').unwrap(), 22);
    }

    #[test]
    fn protein_covers_26_letters() {
        for (i, c) in ('A'..='Z').enumerate() {
            assert_eq!(Alphabet::Protein.encode(c).unwrap(), i as u8);
            assert_eq!(Alphabet::Protein.decode(i as u8).unwrap(), c);
        }
        assert!(Alphabet::Protein.decode(26).is_err());
    }

    #[test]
    fn ascii_roundtrip_all_bytes() {
        for b in 0u8..=127 {
            let c = b as char;
            assert_eq!(Alphabet::Ascii.encode(c).unwrap(), b);
            assert_eq!(Alphabet::Ascii.decode(b).unwrap(), c);
        }
    }

    #[test]
    fn ascii_rejects_non_ascii() {
        assert!(Alphabet::Ascii.encode('é').is_err());
    }

    #[test]
    fn bits_match_cardinality() {
        for a in Alphabet::ALL {
            assert!(a.cardinality() <= 1 << a.bits());
        }
    }

    #[test]
    fn code_validity_is_consistent_with_decode() {
        for a in Alphabet::ALL {
            for code in 0u8..=255 {
                assert_eq!(a.is_valid_code(code), a.decode(code).is_ok(), "{a} {code}");
                if code as usize >= a.cardinality() {
                    break;
                }
            }
        }
    }

    /// An independent per-character encoding: the reference for
    /// `encode_byte` and the tables built from it.
    fn reference_encode(a: Alphabet, symbol: char) -> Option<u8> {
        let up = symbol.to_ascii_uppercase();
        match a {
            Alphabet::Dna2 => "ACGT".find(up).map(|i| i as u8),
            Alphabet::Dna4 => "ACGTNRYSWKMBDHVU".find(up).map(|i| i as u8),
            Alphabet::Protein => up.is_ascii_uppercase().then(|| up as u8 - b'A'),
            Alphabet::Ascii => symbol.is_ascii().then_some(symbol as u8),
        }
    }

    #[test]
    fn byte_encoding_and_decode_table_match_the_char_paths() {
        for a in Alphabet::ALL {
            for c in ['é', '→', 'Ā', '\u{ff}'] {
                assert!(a.encode(c).is_err(), "{a} {c}");
            }
            for b in 0u8..=255 {
                let want = reference_encode(a, char::from(b));
                assert_eq!(a.encode_byte(b), want, "{a} byte {b}");
                assert_eq!(a.encode(char::from(b)).ok(), want, "{a} byte {b}");
                let decoded = a.decode(b).map_or(0, |c| c as u8);
                assert_eq!(a.ascii_table()[usize::from(b)], decoded, "{a} code {b}");
            }
        }
    }
}
