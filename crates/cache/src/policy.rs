//! Eviction policies.

use std::fmt;
use std::str::FromStr;

/// Which resident block to evict when a tier is over capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvictPolicy {
    /// Evict the least-recently-accessed block.
    #[default]
    Lru,
    /// Evict the oldest-inserted block, ignoring accesses.
    Fifo,
    /// Evict the block whose next use in the epoch plan is furthest in the
    /// future (Belady's optimal algorithm). Requires the access sequence
    /// via [`crate::CacheCore::set_plan`]; blocks never used again are
    /// evicted first. Falls back to LRU ordering among ties and when no
    /// plan is set.
    Clairvoyant,
}

impl fmt::Display for EvictPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            EvictPolicy::Lru => "lru",
            EvictPolicy::Fifo => "fifo",
            EvictPolicy::Clairvoyant => "clairvoyant",
        })
    }
}

impl FromStr for EvictPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "lru" => Ok(EvictPolicy::Lru),
            "fifo" => Ok(EvictPolicy::Fifo),
            "clairvoyant" | "belady" | "opt" => Ok(EvictPolicy::Clairvoyant),
            other => Err(format!(
                "unknown eviction policy {other:?} \
                 (valid: lru, fifo, clairvoyant; aliases: belady, opt; case-insensitive)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        for p in [
            EvictPolicy::Lru,
            EvictPolicy::Fifo,
            EvictPolicy::Clairvoyant,
        ] {
            assert_eq!(p.to_string().parse::<EvictPolicy>().unwrap(), p);
        }
        assert_eq!(
            "OPT".parse::<EvictPolicy>().unwrap(),
            EvictPolicy::Clairvoyant
        );
        assert!("arc".parse::<EvictPolicy>().is_err());
    }

    #[test]
    fn parse_is_case_insensitive_and_error_lists_policies() {
        for (text, want) in [
            ("LRU", EvictPolicy::Lru),
            ("Fifo", EvictPolicy::Fifo),
            ("CLAIRVOYANT", EvictPolicy::Clairvoyant),
            ("Belady", EvictPolicy::Clairvoyant),
        ] {
            assert_eq!(text.parse::<EvictPolicy>().unwrap(), want, "{text}");
        }
        let err = "mru".parse::<EvictPolicy>().unwrap_err();
        for policy in ["lru", "fifo", "clairvoyant"] {
            assert!(err.contains(policy), "error lists {policy}: {err}");
        }
    }
}
