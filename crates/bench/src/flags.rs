//! The one command-line reader of the harness: every binary takes its flags
//! by name, default beside the name, and then lets [`Flags::finish`] reject
//! whatever nobody took. A bad flag is an `Err`, never a panic; binaries
//! hand it to [`exit_with_usage`].

use std::str::FromStr;

/// The arguments not taken yet.
pub struct Flags {
    args: Vec<String>,
}

impl Flags {
    /// The process's arguments.
    pub fn from_env() -> Self {
        Self::new(std::env::args().skip(1))
    }

    /// An explicit argument list.
    pub fn new(args: impl IntoIterator<Item = String>) -> Self {
        Self {
            args: args.into_iter().collect(),
        }
    }

    /// Removes every `name VALUE` pair and returns the last value: a
    /// repeated flag overrides itself. Another `--flag` is not a value.
    fn take(&mut self, name: &str) -> Result<Option<String>, String> {
        let mut last = None;
        while let Some(at) = self.args.iter().position(|arg| arg == name) {
            match self.args.get(at + 1) {
                Some(value) if !value.starts_with("--") => {
                    last = Some(self.args.remove(at + 1));
                    self.args.remove(at);
                }
                _ => return Err(format!("missing value for {name}")),
            }
        }
        Ok(last)
    }

    /// `name VALUE`, if given.
    pub fn optional<T: FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        self.take(name)?.map(|text| read(name, &text)).transpose()
    }

    /// `name VALUE`, or `default`.
    pub fn value<T: FromStr>(&mut self, name: &str, default: T) -> Result<T, String> {
        Ok(self.optional(name)?.unwrap_or(default))
    }

    /// `name A,B,C`, or `default`.
    pub fn list<T: FromStr + Clone>(
        &mut self,
        name: &str,
        default: &[T],
    ) -> Result<Vec<T>, String> {
        match self.take(name)? {
            None => Ok(default.to_vec()),
            Some(text) => text.split(',').map(|v| read(name, v.trim())).collect(),
        }
    }

    /// `name N`, or `default`: a count of something a run needs, so at
    /// least 1.
    pub fn count(&mut self, name: &str, default: usize) -> Result<usize, String> {
        at_least_one(name, self.value(name, default)?)
    }

    /// `--users N`, or `default`: a population, so at least 1.
    pub fn users(&mut self, default: usize) -> Result<usize, String> {
        self.count("--users", default)
    }

    /// `name A,B,C`, or `default`: counts of something a run needs (the
    /// populations of `--users`, the actor counts of `--actors`), each at
    /// least 1.
    pub fn counts(&mut self, name: &str, default: &[usize]) -> Result<Vec<usize>, String> {
        let counts = self.list(name, default)?;
        counts.into_iter().map(|n| at_least_one(name, n)).collect()
    }

    /// Whether the bare switch `name` was given.
    pub fn switch(&mut self, name: &str) -> bool {
        let before = self.args.len();
        self.args.retain(|arg| arg != name);
        self.args.len() < before
    }

    /// Rejects the first argument nobody took.
    pub fn finish(self) -> Result<(), String> {
        match self.args.first() {
            None => Ok(()),
            Some(arg) => Err(format!("unknown flag {arg}")),
        }
    }
}

fn read<T: FromStr>(name: &str, text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("cannot read `{text}` as the value of {name}"))
}

/// A count read from flag `name`: a simulation of nobody has no node to
/// build and a run that tracks no query measures nothing, so 0 is rejected
/// here rather than panicking or silently meaning something else later.
fn at_least_one(name: &str, n: usize) -> Result<usize, String> {
    if n == 0 {
        return Err(format!("{name} must be at least 1"));
    }
    Ok(n)
}

/// Prints `error: …` and the binary's usage block, then exits with status 2.
pub fn exit_with_usage(error: &str, usage: &str) -> ! {
    eprintln!("error: {error}\n\n{usage}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Flags {
        Flags::new(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn values_lists_switches_and_defaults() {
        let mut f = flags(&["--users", "10, 20,30", "--check", "--seed", "7"]);
        assert_eq!(f.list("--users", &[1usize]), Ok(vec![10, 20, 30]));
        assert_eq!(f.value("--seed", 42u64), Ok(7));
        assert_eq!(f.value("--cycles", 3u64), Ok(3));
        assert_eq!(f.list("--threads", &[1usize, 2]), Ok(vec![1, 2]));
        assert_eq!(f.optional::<u64>("--warmup"), Ok(None));
        assert_eq!(f.value("--out", "x.json".to_string()), Ok("x.json".into()));
        assert!(f.switch("--check"));
        assert!(!f.switch("--bless"));
        assert_eq!(f.finish(), Ok(()));
    }

    #[test]
    fn a_repeated_flag_keeps_its_last_value() {
        let mut f = flags(&["--seed", "1", "--users", "5", "--seed", "2"]);
        assert_eq!(f.value("--seed", 0u64), Ok(2));
        assert_eq!(f.value("--users", 0usize), Ok(5));
        assert_eq!(f.finish(), Ok(()));
    }

    #[test]
    fn bad_input_is_an_error_not_a_panic() {
        assert!(flags(&["--bogus"])
            .finish()
            .unwrap_err()
            .contains("--bogus"));
        // A value nobody asked for is left over too.
        let mut f = flags(&["--check", "stray"]);
        assert!(f.switch("--check"));
        assert!(f.finish().is_err());
        // Missing values: at the end, and before another flag.
        assert!(flags(&["--seed"]).value("--seed", 0u64).is_err());
        assert!(flags(&["--out", "--check"])
            .value("--out", String::new())
            .is_err());
        // Unreadable values.
        assert!(flags(&["--seed", "x"]).value("--seed", 0u64).is_err());
        assert!(flags(&["--users", "1,,2"])
            .list("--users", &[0usize])
            .is_err());
    }

    #[test]
    fn an_empty_population_is_an_error() {
        let error = Err("--users must be at least 1".to_string());
        assert_eq!(flags(&["--users", "0"]).users(5), error);
        assert!(flags(&["--users", "10,0"]).counts("--users", &[5]).is_err());
        assert!(flags(&["--users", "0"]).counts("--users", &[5]).is_err());
        assert_eq!(
            flags(&["--users", "10,20"]).counts("--users", &[5]),
            Ok(vec![10, 20])
        );
        assert_eq!(flags(&[]).users(5), Ok(5));
        assert_eq!(flags(&[]).counts("--users", &[5, 6]), Ok(vec![5, 6]));
        assert_eq!(
            flags(&["--queries", "0"]).count("--queries", 5),
            Err("--queries must be at least 1".to_string())
        );
        assert_eq!(flags(&[]).count("--queries", 5), Ok(5));
    }
}
