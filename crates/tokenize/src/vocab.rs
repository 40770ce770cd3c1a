//! Frequency-built vocabulary and sequence encoding.

use std::collections::HashMap;

/// Special token ids (fixed positions at the front of every vocabulary).
pub mod special {
    /// Padding.
    pub const PAD: usize = 0;
    /// Unknown / out-of-vocabulary.
    pub const UNK: usize = 1;
    /// Classification marker prepended to every sequence.
    pub const CLS: usize = 2;
    /// Mask token for MLM pre-training.
    pub const MASK: usize = 3;
    /// Number of reserved ids.
    pub const COUNT: usize = 4;
}

/// Token → id vocabulary with `<unk>` fallback.
#[derive(Clone, Debug)]
pub struct Vocab {
    token_to_id: HashMap<String, usize>,
    id_to_token: Vec<String>,
}

impl Vocab {
    /// Builds a vocabulary from token sequences.
    ///
    /// Tokens appearing fewer than `min_freq` times are dropped; at most
    /// `max_size` non-special entries are kept (most frequent first, ties
    /// broken lexicographically for determinism).
    pub fn build<'a, I>(sequences: I, min_freq: usize, max_size: usize) -> Self
    where
        I: Iterator<Item = &'a Vec<String>>,
    {
        let mut freq: HashMap<&str, usize> = HashMap::new();
        for seq in sequences {
            for tok in seq {
                *freq.entry(tok.as_str()).or_default() += 1;
            }
        }
        let mut entries: Vec<(&str, usize)> =
            freq.into_iter().filter(|(_, c)| *c >= min_freq).collect();
        entries.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        entries.truncate(max_size);

        let mut id_to_token: Vec<String> =
            vec!["<pad>".into(), "<unk>".into(), "<cls>".into(), "<mask>".into()];
        id_to_token.extend(entries.iter().map(|(t, _)| t.to_string()));
        let token_to_id = id_to_token.iter().enumerate().map(|(i, t)| (t.clone(), i)).collect();
        Self { token_to_id, id_to_token }
    }

    /// Total vocabulary size including the four specials.
    pub fn len(&self) -> usize {
        self.id_to_token.len()
    }

    /// True when only the specials are present.
    pub fn is_empty(&self) -> bool {
        self.id_to_token.len() <= special::COUNT
    }

    /// Id for a token, falling back to `<unk>`.
    pub fn id(&self, token: &str) -> usize {
        self.token_to_id.get(token).copied().unwrap_or(special::UNK)
    }

    /// True when the token is in-vocabulary.
    pub fn contains(&self, token: &str) -> bool {
        self.token_to_id.contains_key(token)
    }

    /// Token text for an id.
    pub fn token(&self, id: usize) -> &str {
        self.id_to_token.get(id).map(String::as_str).unwrap_or("<unk>")
    }

    /// Encodes a token sequence as `<cls> t1 t2 … <pad>…` of exactly
    /// `max_len` ids. Returns `(ids, valid_len)` where `valid_len` counts
    /// the non-pad prefix (including `<cls>`). Tokens may be owned or
    /// borrowed text.
    pub fn encode<S: AsRef<str>>(&self, tokens: &[S], max_len: usize) -> (Vec<usize>, usize) {
        assert!(max_len >= 1, "max_len must fit at least <cls>");
        let mut ids = Vec::with_capacity(max_len);
        ids.push(special::CLS);
        for t in tokens.iter().take(max_len - 1) {
            ids.push(self.id(t.as_ref()));
        }
        let valid = ids.len();
        ids.resize(max_len, special::PAD);
        (ids, valid)
    }

    /// Decodes ids back to tokens, skipping pad/cls.
    pub fn decode(&self, ids: &[usize]) -> Vec<String> {
        ids.iter()
            .filter(|&&id| id != special::PAD && id != special::CLS)
            .map(|&id| self.token(id).to_string())
            .collect()
    }

    /// Iterates `(token, id)` pairs in id order (specials first).
    pub fn iter(&self) -> impl Iterator<Item = (&str, usize)> {
        self.id_to_token.iter().enumerate().map(|(i, t)| (t.as_str(), i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seqs(data: &[&[&str]]) -> Vec<Vec<String>> {
        data.iter().map(|s| s.iter().map(|t| t.to_string()).collect()).collect()
    }

    #[test]
    fn build_orders_by_frequency() {
        let s = seqs(&[&["a", "b", "a", "c", "a", "b"]]);
        let v = Vocab::build(s.iter(), 1, 100);
        assert_eq!(v.id("a"), special::COUNT); // most frequent right after specials
        assert_eq!(v.id("b"), special::COUNT + 1);
        assert_eq!(v.id("c"), special::COUNT + 2);
        assert_eq!(v.len(), special::COUNT + 3);
    }

    #[test]
    fn min_freq_filters() {
        let s = seqs(&[&["x", "x", "rare"]]);
        let v = Vocab::build(s.iter(), 2, 100);
        assert!(v.contains("x"));
        assert!(!v.contains("rare"));
        assert_eq!(v.id("rare"), special::UNK);
    }

    #[test]
    fn max_size_truncates() {
        let s = seqs(&[&["a", "a", "b", "b", "c"]]);
        let v = Vocab::build(s.iter(), 1, 2);
        assert_eq!(v.len(), special::COUNT + 2);
        assert!(!v.contains("c"));
    }

    #[test]
    fn encode_pads_and_truncates() {
        let s = seqs(&[&["for", "i", "=", "0"]]);
        let v = Vocab::build(s.iter(), 1, 100);
        let toks: Vec<String> = ["for", "i"].iter().map(|t| t.to_string()).collect();
        let (ids, valid) = v.encode(&toks, 6);
        assert_eq!(ids.len(), 6);
        assert_eq!(valid, 3); // cls + 2 tokens
        assert_eq!(ids[0], special::CLS);
        assert_eq!(ids[3], special::PAD);
        // Truncation.
        let long: Vec<String> = (0..10).map(|_| "for".to_string()).collect();
        let (ids, valid) = v.encode(&long, 4);
        assert_eq!(ids.len(), 4);
        assert_eq!(valid, 4);
    }

    #[test]
    fn decode_skips_specials() {
        let s = seqs(&[&["a", "b"]]);
        let v = Vocab::build(s.iter(), 1, 10);
        let toks: Vec<String> = ["a", "b"].iter().map(|t| t.to_string()).collect();
        let (ids, _) = v.encode(&toks, 8);
        assert_eq!(v.decode(&ids), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn unknown_tokens_map_to_unk() {
        let s = seqs(&[&["known"]]);
        let v = Vocab::build(s.iter(), 1, 10);
        let toks: Vec<String> = ["mystery"].iter().map(|t| t.to_string()).collect();
        let (ids, _) = v.encode(&toks, 4);
        assert_eq!(ids[1], special::UNK);
        assert_eq!(v.decode(&ids), vec!["<unk>".to_string()]);
    }

    #[test]
    fn deterministic_under_tie() {
        let s1 = seqs(&[&["b", "a"]]);
        let s2 = seqs(&[&["a", "b"]]);
        let v1 = Vocab::build(s1.iter(), 1, 10);
        let v2 = Vocab::build(s2.iter(), 1, 10);
        assert_eq!(v1.id("a"), v2.id("a"));
        assert_eq!(v1.id("b"), v2.id("b"));
    }
}
