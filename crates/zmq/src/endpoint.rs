//! Endpoint addressing: `tcp://host:port`.

use crate::ZmqError;
use std::fmt;

/// A parsed socket endpoint. TCP is the one transport; the enum is
/// `non_exhaustive` so a downstream `let Endpoint::Tcp(addr) = … else`
/// stays a refutable pattern.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Endpoint {
    /// TCP address, e.g. `tcp://127.0.0.1:5555`.
    Tcp(String),
}

impl Endpoint {
    /// Parse an endpoint URI.
    pub fn parse(s: &str) -> crate::Result<Endpoint> {
        if let Some(addr) = s.strip_prefix("tcp://") {
            if addr
                .rsplit_once(':')
                .is_none_or(|(h, p)| h.is_empty() || p.parse::<u16>().is_err())
            {
                return Err(ZmqError::BadEndpoint(format!(
                    "tcp endpoint needs host:port, got {s:?}"
                )));
            }
            Ok(Endpoint::Tcp(addr.to_string()))
        } else {
            Err(ZmqError::BadEndpoint(format!(
                "unknown scheme in {s:?} (expected tcp://)"
            )))
        }
    }

    /// Build a TCP endpoint from host and port.
    pub fn tcp(host: &str, port: u16) -> Endpoint {
        Endpoint::Tcp(format!("{host}:{port}"))
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Tcp(a) => write!(f, "tcp://{a}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_tcp() {
        assert_eq!(
            Endpoint::parse("tcp://127.0.0.1:5555").unwrap(),
            Endpoint::Tcp("127.0.0.1:5555".into())
        );
        assert_eq!(
            Endpoint::parse("tcp://storage-node:80").unwrap(),
            Endpoint::tcp("storage-node", 80)
        );
    }

    #[test]
    fn inproc_scheme_is_an_error_that_names_tcp() {
        let err = Endpoint::parse("inproc://x").unwrap_err().to_string();
        assert!(err.contains("tcp://"), "{err}");
    }

    #[test]
    fn parse_errors() {
        for bad in [
            "",
            "127.0.0.1:5555",
            "tcp://",
            "tcp://nohost",
            "tcp://host:notaport",
            "tcp://:5555",
            "udp://host:1",
        ] {
            assert!(Endpoint::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn display_roundtrip() {
        for s in ["tcp://1.2.3.4:9", "tcp://storage-node:80"] {
            assert_eq!(Endpoint::parse(s).unwrap().to_string(), s);
        }
    }
}
