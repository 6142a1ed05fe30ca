//! End-to-end tests of the `glimpse` binary (spawned as a subprocess).

// Tests write throwaway fixture files; the IO1 atomic-write contract covers
// product code, not test scaffolding.
#![allow(clippy::disallowed_methods)]

use std::process::Command;

fn glimpse() -> Command {
    Command::new(env!("CARGO_BIN_EXE_glimpse"))
}

#[test]
fn gpus_lists_the_database() {
    let out = glimpse().arg("gpus").output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in ["Titan Xp", "RTX 2070 Super", "RTX 2080 Ti", "RTX 3090"] {
        assert!(text.contains(name), "missing {name}");
    }
}

#[test]
fn models_lists_table1_counts() {
    let out = glimpse().arg("models").output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("AlexNet"));
    assert!(text.contains("12 tasks"));
    assert!(text.contains("17 tasks"));
    assert!(text.contains("21 tasks"));
    // Extension models appear too.
    assert!(text.contains("SqueezeNet-1.1"));
}

#[test]
fn help_prints_usage_and_succeeds() {
    let out = glimpse().arg("help").output().expect("spawn");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("glimpse tune"));
}

#[test]
fn unknown_command_fails_with_message() {
    let out = glimpse().arg("frobnicate").output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("frobnicate"));
}

#[test]
fn sheet_parses_a_valid_data_sheet() {
    let sheet = "\
name: Test GPU\n\
generation: Turing\n\
sm_count: 40\n\
cores_per_sm: 64\n\
base_clock_mhz: 1500\n\
boost_clock_mhz: 1700\n\
mem_bandwidth_gb_s: 448\n\
mem_bus_bits: 256\n\
mem_size_gib: 8\n\
l2_cache_kib: 4096\n\
tdp_w: 200\n";
    let path = std::env::temp_dir().join("glimpse-cli-test-sheet.txt");
    std::fs::write(&path, sheet).unwrap();
    let out = glimpse().arg("sheet").arg(&path).output().expect("spawn");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Test GPU"));
    assert!(text.contains("blueprint"));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn sheet_rejects_garbage_with_nonzero_exit() {
    let path = std::env::temp_dir().join("glimpse-cli-bad-sheet.txt");
    std::fs::write(&path, "this is not a data sheet").unwrap();
    let out = glimpse().arg("sheet").arg(&path).output().expect("spawn");
    assert!(!out.status.success());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn sweep_prints_the_recommendation() {
    let out = glimpse().arg("sweep").output().expect("spawn");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("recommended"));
}

#[test]
fn tune_single_task_with_random_tuner() {
    // The random tuner needs no artifact training — fast enough for a test.
    let out = glimpse()
        .args(["tune", "alexnet", "GTX 1080", "--tuner", "random", "--task", "2", "--budget", "24"])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("L2"));
    assert!(text.contains("total simulated GPU time"));
}

/// Splits a printed command line into words, honoring the double quotes
/// the CLI puts around arguments that contain a space.
fn split_command(line: &str) -> Vec<String> {
    let mut words = Vec::new();
    let mut word = String::new();
    let mut quoted = false;
    let mut chars = line.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => quoted = !quoted,
            '\\' if quoted => word.extend(chars.next()),
            ' ' if !quoted => {
                if !word.is_empty() {
                    words.push(std::mem::take(&mut word));
                }
            }
            _ => word.push(c),
        }
    }
    if !word.is_empty() {
        words.push(word);
    }
    words
}

#[test]
fn printed_resume_command_finishes_a_faulted_deadline_run() {
    let dir = std::env::temp_dir().join("glimpse-cli-resume-hint-test");
    let _ = std::fs::remove_dir_all(&dir);
    let out = glimpse()
        .args(["tune", "alexnet", "Titan Xp", "--tuner", "random", "--budget", "12", "--task", "2"])
        .args(["--fault-plan", "timeout=0.2,launch=0.1", "--fault-seed", "9", "--deadline-s", "0"])
        .arg("--checkpoint-dir")
        .arg(&dir)
        .output()
        .expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    assert!(!dir.join("task2").join("complete.json").exists());
    let hint = stderr
        .lines()
        .find_map(|l| l.strip_prefix("resume with: "))
        .unwrap_or_else(|| panic!("no resume command in: {stderr}"));
    let words = split_command(hint);
    assert_eq!(&words[..2], ["glimpse", "tune"], "{hint}");
    assert!(!words.iter().any(|w| w == "--deadline-s"), "{hint}");

    let out = glimpse().args(&words[1..]).output().expect("spawn");
    assert!(out.status.success(), "resume failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(dir.join("task2").join("complete.json").exists());
    let report = std::fs::read_to_string(dir.join("degradation.json")).unwrap();
    assert!(report.contains("Complete"), "got: {report}");
    let _ = std::fs::remove_dir_all(&dir);
}
