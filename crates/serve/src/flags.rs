//! The flag cursor `hfzd`, `hfz serve` and `hfzr` parse their command lines with.
//!
//! All three take `--flag VALUE` pairs only. [`Flags::next_flag`] steps to the next
//! flag and the typed accessors consume and check its value, so the per-binary parsers
//! are one `match` that fills a builder and every binary words a bad value the same
//! way.

use huffdec_backend::BackendKind;

use crate::net::ListenAddr;

/// A cursor over `--flag VALUE` arguments.
#[derive(Debug)]
pub struct Flags<'a> {
    args: std::slice::Iter<'a, String>,
    /// The flag whose value is read next; error messages name it.
    flag: &'a str,
}

impl<'a> Flags<'a> {
    /// A cursor at the start of `args`.
    pub fn new(args: &'a [String]) -> Flags<'a> {
        Flags {
            args: args.iter(),
            flag: "",
        }
    }

    /// Steps to the next flag, or `None` at the end of the arguments.
    pub fn next_flag(&mut self) -> Option<&'a str> {
        self.flag = self.args.next()?;
        Some(self.flag)
    }

    /// The current flag's value, verbatim.
    pub fn value(&mut self) -> Result<&'a str, String> {
        self.args
            .next()
            .map(String::as_str)
            .ok_or_else(|| format!("flag {} expects a value", self.flag))
    }

    /// The current flag's value as a number.
    pub fn number<T: std::str::FromStr>(&mut self) -> Result<T, String> {
        self.value()?
            .parse()
            .map_err(|_| format!("bad {} value", self.flag))
    }

    /// The current flag's value as a `tcp:HOST:PORT` / `unix:PATH` address
    /// (`--listen`, `--metrics`, `--shard`).
    pub fn addr(&mut self) -> Result<ListenAddr, String> {
        ListenAddr::parse(self.value()?)
    }

    /// The current flag's value as an execution backend (`--backend sim|cpu`).
    pub fn backend(&mut self) -> Result<BackendKind, String> {
        let name = self.value()?;
        name.parse()
            .map_err(|_| format!("{} '{}' is not sim|cpu", self.flag, name))
    }

    /// The current flag's value as a `NAME=PATH` archive to load (`--load`).
    pub fn load(&mut self) -> Result<(String, String), String> {
        let spec = self.value()?;
        let (name, path) = spec
            .split_once('=')
            .ok_or_else(|| format!("{} '{}' is not NAME=PATH", self.flag, spec))?;
        if name.is_empty() || path.is_empty() {
            return Err(format!("{} needs a non-empty NAME=PATH", self.flag));
        }
        Ok((name.to_string(), path.to_string()))
    }
}
