//! Sleep-poll ratchet: `thread::sleep` in the non-test code of the runtime
//! (`core`) and the daemon. Each such call is a loop polling on a timer
//! instead of waking on the event it waits for, so the latency it guards
//! steps in sleep-sized increments and tests that pass on it pass because of
//! timing, not events. Counts are baselined per file (`[sleep-poll]` in
//! `analysis-baseline.toml`) and may only go down.

use crate::model::CrateModel;
use crate::panics::Site;

/// Crates whose `src/` is audited (by directory name under `crates/`).
pub const SLEEP_CRATES: &[&str] = &["core", "daemon"];

/// Every `thread::sleep` call in a crate's non-test source.
pub fn sleep_sites(model: &CrateModel) -> Vec<Site> {
    let mut out = Vec::new();
    for f in &model.files {
        for (i, code) in f.code.iter().enumerate() {
            if f.in_test[i] {
                continue;
            }
            let n = code.matches("thread::sleep(").count();
            out.extend((0..n).map(|_| Site {
                file: f.path.clone(),
                line: i,
                what: "thread::sleep",
            }));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;
    use std::path::Path;

    fn count(files: &[(&str, &str)]) -> usize {
        let files = files
            .iter()
            .map(|(p, src)| SourceFile::from_text(Path::new(p), src))
            .collect();
        sleep_sites(&CrateModel::from_files("t", files)).len()
    }

    #[test]
    fn counts_sleeps_outside_tests_only() {
        let n = count(&[(
            "t/src/lib.rs",
            concat!(
                "fn poll() { loop { std::thread::sleep(D); } }\n",
                "// thread::sleep(D) in a comment\n",
                "fn s() -> &'static str { \"thread::sleep(D)\" }\n",
                "#[cfg(test)]\n",
                "mod tests { fn t() { std::thread::sleep(D); } }\n",
            ),
        )]);
        assert_eq!(n, 1);
    }

    #[test]
    fn out_of_line_test_modules_are_test_code() {
        let n = count(&[
            ("t/src/lib.rs", "#[cfg(test)]\nmod tests;\nmod real;\n"),
            ("t/src/tests.rs", "fn t() { std::thread::sleep(D); }\n"),
            ("t/src/real.rs", "fn r() { std::thread::sleep(D); }\n"),
        ]);
        assert_eq!(n, 1);
    }
}
