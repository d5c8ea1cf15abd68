//! Minimal shared argument parsing for the figure binaries.

use std::path::PathBuf;

/// Options common to every experiment binary.
#[derive(Clone, Debug, PartialEq)]
pub struct ExperimentArgs {
    /// Reduced scenes/resolutions/repetitions (`--quick`, the default) or
    /// paper-scale (`--full`).
    pub quick: bool,
    /// Write CSV outputs into this directory (`--out DIR`).
    pub out: Option<PathBuf>,
    /// Restrict to one scene (`--scene NAME`).
    pub scene: Option<String>,
    /// Override repetition count (`--repeats N`).
    pub repeats: Option<usize>,
    /// Write a JSONL telemetry trace of the run (`--trace FILE`, or the
    /// `KDTUNE_TRACE` environment variable).
    pub trace: Option<PathBuf>,
    /// Pin the Rayon pool width (`--threads N`). `None` uses the
    /// machine's default width (or, for fig7, each platform profile).
    pub threads: Option<usize>,
    /// Ray-packet width (`--packet-width W`, one of 0/1/4/8/16; 0 and 1
    /// mean scalar). `None` keeps each binary's default.
    pub packet_width: Option<u32>,
    /// Extra flags the specific binary interprets (e.g. `--platforms`).
    pub flags: Vec<String>,
}

/// The options every experiment binary takes.
const USAGE: &str = "options: --quick (default) | --full | --out DIR | --scene NAME | \
                     --repeats N | --trace FILE | --threads N | --packet-width 0|1|4|8|16";

impl Default for ExperimentArgs {
    fn default() -> Self {
        ExperimentArgs {
            quick: true,
            out: None,
            scene: None,
            repeats: None,
            trace: None,
            threads: None,
            packet_width: None,
            flags: Vec::new(),
        }
    }
}

impl ExperimentArgs {
    /// Parses an iterator of arguments (without the program name).
    ///
    /// # Errors
    /// Returns a usage message for unknown or malformed options.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<ExperimentArgs, String> {
        let mut out = ExperimentArgs::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--quick" => out.quick = true,
                "--full" => out.quick = false,
                "--out" => {
                    let dir = it.next().ok_or("--out needs a directory")?;
                    out.out = Some(PathBuf::from(dir));
                }
                "--scene" => {
                    out.scene = Some(it.next().ok_or("--scene needs a name")?);
                }
                "--repeats" => {
                    let n = it.next().ok_or("--repeats needs a number")?;
                    out.repeats = Some(n.parse().map_err(|e| format!("bad --repeats {n}: {e}"))?);
                }
                "--trace" => {
                    out.trace = Some(PathBuf::from(it.next().ok_or("--trace needs a file")?));
                }
                "--threads" => {
                    let n = it.next().ok_or("--threads needs a number")?;
                    let n: usize = n.parse().map_err(|e| format!("bad --threads {n}: {e}"))?;
                    if n == 0 {
                        return Err("--threads must be at least 1".to_string());
                    }
                    out.threads = Some(n);
                }
                "--packet-width" => {
                    let n = it.next().ok_or("--packet-width needs a number")?;
                    let n: u32 = n
                        .parse()
                        .map_err(|e| format!("bad --packet-width {n}: {e}"))?;
                    if ![0, 1, 4, 8, 16].contains(&n) {
                        return Err(format!(
                            "--packet-width {n}: expected one of 0, 1, 4, 8, 16"
                        ));
                    }
                    out.packet_width = Some(n);
                }
                "--help" | "-h" => return Err(USAGE.to_string()),
                other if other.starts_with("--") => out.flags.push(other.to_string()),
                other => return Err(format!("unexpected argument {other:?}")),
            }
        }
        Ok(out)
    }

    /// Rejects any binary-specific flag not in `own_flags`, the bare
    /// flags the calling binary reads: a misspelled flag must not be
    /// ignored.
    ///
    /// # Errors
    /// Names the first unknown flag.
    pub fn only_flags(self, own_flags: &[&str]) -> Result<ExperimentArgs, String> {
        match self.flags.iter().find(|f| !own_flags.contains(&f.as_str())) {
            Some(flag) => Err(format!("unknown flag {flag}")),
            None => Ok(self),
        }
    }

    /// Parses `std::env::args()`, accepting the bare flags in `own_flags`
    /// besides the shared options, and exits with status 2 and the usage
    /// on an error or `--help`. Installs the JSONL trace recorder when
    /// `--trace` / `KDTUNE_TRACE` asks for one, so every figure binary
    /// traces for free.
    pub fn from_env(own_flags: &[&str]) -> ExperimentArgs {
        let parsed = ExperimentArgs::parse(std::env::args().skip(1))
            .and_then(|args| args.only_flags(own_flags));
        let args = match parsed {
            Ok(a) => a,
            Err(msg) => {
                eprintln!("{msg}");
                if msg != USAGE {
                    eprintln!("{USAGE}");
                }
                if !own_flags.is_empty() {
                    eprintln!("flags of this binary: {}", own_flags.join(" "));
                }
                std::process::exit(2);
            }
        };
        args.init_tracing();
        args
    }

    /// Installs a process-global [`kdtune_telemetry::sinks::JsonlRecorder`]
    /// writing to `--trace FILE`, falling back to the `KDTUNE_TRACE`
    /// environment variable. No-op when neither is set.
    pub fn init_tracing(&self) {
        let path = self
            .trace
            .clone()
            .or_else(|| std::env::var_os("KDTUNE_TRACE").map(PathBuf::from));
        let Some(path) = path else { return };
        match kdtune_telemetry::sinks::JsonlRecorder::create(&path) {
            Ok(rec) => {
                kdtune_telemetry::set_recorder(std::sync::Arc::new(rec));
            }
            Err(e) => eprintln!("warning: cannot open trace file {}: {e}", path.display()),
        }
    }

    /// True when a binary-specific flag was passed.
    pub fn has_flag(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f == flag)
    }

    /// Runs `f` inside a pool of `--threads` workers when the flag was
    /// given; otherwise runs it directly on the default-width pool.
    pub fn with_pool<T: Send>(&self, f: impl FnOnce() -> T + Send) -> T {
        match self.threads {
            Some(n) => crate::platforms::run_on(n, f),
            None => f(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ExperimentArgs, String> {
        ExperimentArgs::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_are_quick() {
        let a = parse(&[]).unwrap();
        assert!(a.quick);
        assert!(a.out.is_none());
    }

    #[test]
    fn full_and_options() {
        let a = parse(&[
            "--full",
            "--out",
            "/tmp/x",
            "--scene",
            "sibenik",
            "--repeats",
            "5",
        ])
        .unwrap();
        assert!(!a.quick);
        assert_eq!(a.out.unwrap(), PathBuf::from("/tmp/x"));
        assert_eq!(a.scene.as_deref(), Some("sibenik"));
        assert_eq!(a.repeats, Some(5));
    }

    #[test]
    fn unknown_double_dash_becomes_flag() {
        let a = parse(&["--platforms"]).unwrap();
        assert!(a.has_flag("--platforms"));
        assert!(!a.has_flag("--other"));
    }

    #[test]
    fn only_the_binarys_own_flags_pass() {
        let a = parse(&["--smoke", "--out", "x"]).unwrap();
        assert!(a.clone().only_flags(&["--smoke"]).is_ok());
        assert_eq!(
            a.clone().only_flags(&[]).unwrap_err(),
            "unknown flag --smoke"
        );
        let typo = parse(&["--smoke", "--smkoe-typo"]).unwrap();
        assert_eq!(
            typo.only_flags(&["--smoke"]).unwrap_err(),
            "unknown flag --smkoe-typo"
        );
        assert!(parse(&["--out", "x"]).unwrap().only_flags(&[]).is_ok());
    }

    #[test]
    fn bare_words_rejected() {
        assert!(parse(&["sibenik"]).is_err());
        assert!(parse(&["--repeats", "abc"]).is_err());
        assert!(parse(&["--out"]).is_err());
    }

    #[test]
    fn packet_width_flag() {
        assert_eq!(parse(&[]).unwrap().packet_width, None);
        assert_eq!(
            parse(&["--packet-width", "8"]).unwrap().packet_width,
            Some(8)
        );
        assert_eq!(
            parse(&["--packet-width", "0"]).unwrap().packet_width,
            Some(0)
        );
        assert!(parse(&["--packet-width"]).is_err());
        assert!(parse(&["--packet-width", "2"]).is_err());
        assert!(parse(&["--packet-width", "wide"]).is_err());
    }

    #[test]
    fn threads_flag() {
        assert_eq!(parse(&[]).unwrap().threads, None);
        let a = parse(&["--threads", "8"]).unwrap();
        assert_eq!(a.threads, Some(8));
        assert_eq!(a.with_pool(rayon::current_num_threads), 8);
        assert!(parse(&["--threads"]).is_err());
        assert!(parse(&["--threads", "0"]).is_err());
        assert!(parse(&["--threads", "x"]).is_err());
    }
}
