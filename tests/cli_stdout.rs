//! Commands that write their output to stdout end quietly when the reader
//! goes away: `adjstream_cli gen ... | head -1` exits 0 and prints no
//! error, like any well-behaved filter.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_adjstream_cli"))
}

#[test]
fn closing_stdout_early_is_a_quiet_success() {
    let dir = std::env::temp_dir().join(format!("adjstream-epipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let graph = dir.join("g.txt");
    let graph = graph.to_str().unwrap();
    // 200 cliques of 20: 38k edges, far more output than a pipe buffers.
    let gen = ["gen", "cliques", "--s", "200", "--k", "20"];
    let made = cli().args(gen).args(["-o", graph]).output().unwrap();
    assert!(made.status.success());
    for args in [&gen[..], &["stream", graph], &["gen-updates", graph]] {
        let mut child = cli()
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        let mut first = String::new();
        BufReader::new(child.stdout.take().unwrap())
            .read_line(&mut first)
            .unwrap();
        assert!(!first.is_empty(), "{args:?} wrote nothing");
        let out = child.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(!stderr.contains("error:"), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
