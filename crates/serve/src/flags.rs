//! The flag cursor every command line in the workspace is parsed with: each `hfz`
//! subcommand, `hfz serve`, `hfzd` and `hfzr`.
//!
//! [`Flags::next_flag`] steps to the next argument and the typed accessors consume and
//! check its value, so each parser is one `match` that words a missing value, a bad
//! value and an argument no arm takes ([`Flags::unknown`]) the same way.

use crate::net::ListenAddr;

/// A cursor over command-line arguments.
#[derive(Debug)]
pub struct Flags<'a> {
    args: std::slice::Iter<'a, String>,
    /// The argument `next_flag` returned last; error messages name it.
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

    /// Steps to the next argument, or `None` at the end of the arguments.
    pub fn next_flag(&mut self) -> Option<&'a str> {
        self.flag = self.args.next()?;
        Some(self.flag)
    }

    /// The usage error for an argument no match arm takes: an unknown `--flag`, or a
    /// bare word the command has no place for.
    pub fn unknown(&self) -> String {
        if self.flag.starts_with("--") {
            format!("unknown flag {}", self.flag)
        } else {
            format!("unexpected argument '{}'", self.flag)
        }
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
    /// (`--listen`, `--metrics`, `--shard`, `--addr`).
    pub fn addr(&mut self) -> Result<ListenAddr, String> {
        ListenAddr::parse(self.value()?)
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
