//! End-to-end tests of the `statobd` CLI binary.

use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_statobd")
}

#[test]
fn template_then_analyze_round_trip() {
    let dir = std::env::temp_dir().join("statobd_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let spec = dir.join("spec.json");

    let out = Command::new(bin())
        .args(["template", spec.to_str().unwrap()])
        .output()
        .expect("run template");
    assert!(out.status.success(), "template failed: {out:?}");
    assert!(spec.exists());

    let out = Command::new(bin())
        .args([
            "analyze",
            spec.to_str().unwrap(),
            "--grid",
            "6",
            "--l0",
            "6",
            "--mc",
            "50",
            "--curve",
            "5",
        ])
        .output()
        .expect("run analyze");
    assert!(out.status.success(), "analyze failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("st_fast lifetime"),
        "missing lifetime: {stdout}"
    );
    assert!(
        stdout.contains("guard-band corner"),
        "missing guard: {stdout}"
    );
    assert!(stdout.contains("per-block contributions"), "{stdout}");
    assert!(stdout.contains("Monte-Carlo (50 chips)"), "{stdout}");
    assert!(stdout.contains("P(t) curve, 5 points"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyze_rejects_missing_file() {
    let out = Command::new(bin())
        .args(["analyze", "/nonexistent/spec.json"])
        .output()
        .expect("run analyze");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error"), "{stderr}");
}

#[test]
fn usage_on_no_arguments() {
    let out = Command::new(bin()).output().expect("run bare");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage"), "{stderr}");
}

#[test]
fn unknown_option_is_reported() {
    let out = Command::new(bin())
        .args(["bench", "C1", "--bogus", "1"])
        .output()
        .expect("run bench");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown option"), "{stderr}");
}

#[test]
fn degenerate_option_values_fail_fast() {
    // These used to parse fine and blow up (or mislead) deep inside the
    // analysis; now the CLI rejects them before building anything.
    for bad in [
        &["--l0", "0"][..],
        &["--grid", "0"],
        &["--rho", "0"],
        &["--rho", "-1"],
        &["--mc", "0"],
        &["--curve", "0"],
        // A repeated flag is an error, not "last value wins".
        &["--grid", "6", "--grid", "8"],
    ] {
        let out = Command::new(bin())
            .args(["bench", "C1"])
            .args(bad)
            .output()
            .expect("run bench");
        assert!(!out.status.success(), "{bad:?} should be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(bad[0]),
            "rejection for {bad:?} should mention the flag: {stderr}"
        );
    }
}

#[test]
fn l0_reaches_the_st_fast_engine() {
    // The st_fast lifetime line without its wall-time annotation.
    let lifetime = |extra: &[&str]| {
        let out = Command::new(bin())
            .args(["bench", "C1", "--grid", "4"])
            .args(extra)
            .output()
            .expect("run bench");
        assert!(out.status.success(), "{out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let line = stdout
            .lines()
            .find(|l| l.starts_with("st_fast lifetime"))
            .unwrap_or_else(|| panic!("missing lifetime: {stdout}"));
        line.split("  [").next().unwrap().to_string()
    };
    // A two-sub-domain quadrature moves the solved lifetime; the default
    // is ten.
    assert_ne!(lifetime(&[]), lifetime(&["--l0", "2"]));
    assert_eq!(lifetime(&[]), lifetime(&["--l0", "10"]));
}

#[test]
fn manage_runs_a_schedule_and_checkpoints() {
    let dir = std::env::temp_dir().join("statobd_cli_manage");
    std::fs::create_dir_all(&dir).unwrap();
    let spec = dir.join("spec.json");
    let sched = dir.join("sched.json");
    let state = dir.join("state.json");

    let out = Command::new(bin())
        .args(["template", spec.to_str().unwrap()])
        .output()
        .expect("template");
    assert!(out.status.success(), "{out:?}");
    let out = Command::new(bin())
        .args(["manage", "template", sched.to_str().unwrap()])
        .output()
        .expect("manage template");
    assert!(out.status.success(), "{out:?}");

    let run = |extra: &[&str]| {
        Command::new(bin())
            .args([
                "manage",
                spec.to_str().unwrap(),
                sched.to_str().unwrap(),
                "--grid",
                "8",
                "--checkpoint",
                state.to_str().unwrap(),
            ])
            .args(extra)
            .output()
            .expect("manage")
    };
    let out = run(&[]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("pristine chip"), "{stdout}");
    assert!(stdout.contains("end of schedule"), "{stdout}");
    assert!(stdout.contains("verdict: budget"), "{stdout}");
    // The checkpoint was written and restores as a valid damage state.
    let json = std::fs::read_to_string(&state).unwrap();
    assert!(statobd::manager::DamageState::from_json(&json).is_ok());

    // A second run resumes from the accumulated damage.
    let out = run(&[]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("restored checkpoint"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn manage_rejects_bad_schedules() {
    let dir = std::env::temp_dir().join("statobd_cli_manage_bad");
    std::fs::create_dir_all(&dir).unwrap();
    let spec = dir.join("spec.json");
    Command::new(bin())
        .args(["template", spec.to_str().unwrap()])
        .output()
        .expect("template");
    // A schedule whose policy has an empty ladder must be rejected while
    // parsing, before any tables are built.
    let sched = dir.join("sched.json");
    std::fs::write(
        &sched,
        r#"{"policy": {"budget": 1e-6, "service_life_s": 1e8, "hysteresis": 0.8, "levels": []},
            "phases": [{"name": "p", "duration_s": 1e6, "dt_k": 0.0, "vdd_v": 1.2}],
            "steps_per_phase": 1, "repeat": 1}"#,
    )
    .unwrap();
    let out = Command::new(bin())
        .args(["manage", spec.to_str().unwrap(), sched.to_str().unwrap()])
        .output()
        .expect("manage");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("ladder"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_answers_a_request_script_on_stdin() {
    use std::io::Write;

    let dir = std::env::temp_dir().join("statobd_cli_serve");
    std::fs::create_dir_all(&dir).unwrap();

    let mut child = Command::new(bin())
        .args(["serve", "--cache-dir", dir.to_str().unwrap()])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn serve");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(
            concat!(
                r#"{"id": 1, "op": "open", "session": "c1", "spec": {"design": "C1", "grid_side": 6}}"#,
                "\n",
                r#"{"id": 2, "op": "p_at", "session": "c1", "t_s": 3.156e8}"#,
                "\n",
                r#"{"id": 3, "op": "lifetime", "session": "c1", "target": 1e-6}"#,
                "\n",
                r#"{"id": 4, "op": "p_at", "session": "nope", "t_s": 1e8}"#,
                "\n",
                r#"{"op": "shutdown"}"#,
                "\n",
            )
            .as_bytes(),
        )
        .expect("write requests");
    let out = child.wait_with_output().expect("serve exits");
    assert!(out.status.success(), "{out:?}");

    let stdout = String::from_utf8_lossy(&out.stdout);
    let replies: Vec<&str> = stdout.lines().collect();
    assert_eq!(replies.len(), 5, "one reply per request: {stdout}");
    assert!(replies[0].contains(r#""ok":true"#), "{stdout}");
    assert!(replies[0].contains(r#""source":"cold""#), "{stdout}");
    assert!(replies[1].contains(r#""p":"#), "{stdout}");
    assert!(replies[2].contains(r#""years":"#), "{stdout}");
    // Unknown session: a structured error, not a dead server.
    assert!(replies[3].contains(r#""ok":false"#), "{stdout}");
    assert!(replies[4].contains(r#""ok":true"#), "{stdout}");

    // A second server over the same cache dir opens the session warm.
    let mut child = Command::new(bin())
        .args(["serve", "--cache-dir", dir.to_str().unwrap()])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn serve again");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(
            concat!(
                r#"{"op": "open", "session": "c1", "spec": {"design": "C1", "grid_side": 6}}"#,
                "\n",
                r#"{"op": "shutdown"}"#,
                "\n",
            )
            .as_bytes(),
        )
        .expect("write requests");
    let out = child.wait_with_output().expect("serve exits");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains(r#""source":"cache""#), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[cfg(unix)]
#[test]
fn serve_keeps_sessions_hot_across_socket_connections() {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;

    let dir = std::env::temp_dir().join("statobd_cli_socket");
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("serve.sock");
    let mut child = Command::new(bin())
        .args(["serve", "--no-cache", "--socket", socket.to_str().unwrap()])
        .spawn()
        .expect("spawn serve");
    let connect = || {
        for _ in 0..600 {
            if let Ok(stream) = UnixStream::connect(&socket) {
                return stream;
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        panic!("no server listening on {}", socket.display());
    };
    // Sends one raw request line and returns the reply line.
    let ask = |stream: &mut UnixStream, line: &[u8]| {
        stream.write_all(line).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut reply = String::new();
        BufReader::new(stream.try_clone().unwrap())
            .read_line(&mut reply)
            .unwrap();
        reply
    };

    let mut first = connect();
    let reply = ask(
        &mut first,
        br#"{"id": 1, "op": "open", "session": "c1", "spec": {"design": "C1", "grid_side": 6}}"#,
    );
    assert!(reply.contains(r#""ok":true"#), "{reply}");
    drop(first);

    // A new connection finds the session hot.
    let mut second = connect();
    let reply = ask(
        &mut second,
        br#"{"id": 2, "op": "p_at", "session": "c1", "t_s": 3.156e8}"#,
    );
    assert!(
        reply.contains(r#""ok":true"#) && reply.contains(r#""p":"#),
        "{reply}"
    );
    let reply = ask(&mut second, b"\xff\xfe");
    assert!(
        reply.contains(r#""ok":false"#) && reply.contains("not UTF-8"),
        "{reply}"
    );
    let reply = ask(&mut second, br#"{"id": 3, "op": "shutdown"}"#);
    assert!(reply.contains(r#""ok":true"#), "{reply}");

    let status = child.wait().expect("serve exits");
    assert!(status.success(), "{status:?}");
    assert!(!socket.exists(), "the socket file outlived the server");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn thermal_subcommand_reports_block_temperatures() {
    use statobd::thermal::{Block, BlockPower, Floorplan, PowerModel, Rect};
    let dir = std::env::temp_dir().join("statobd_cli_thermal");
    std::fs::create_dir_all(&dir).unwrap();

    let mut fp = Floorplan::new(0.01, 0.01).unwrap();
    fp.add_block(Block::new("hot", Rect::new(0.0, 0.0, 0.004, 0.004).unwrap()).unwrap())
        .unwrap();
    let mut pm = PowerModel::new();
    pm.set_block_power("hot", BlockPower::new(6.0, 0.5).unwrap())
        .unwrap();
    let fp_path = dir.join("fp.json");
    let pm_path = dir.join("pm.json");
    std::fs::write(&fp_path, statobd::num::json::to_string(&fp)).unwrap();
    std::fs::write(&pm_path, statobd::num::json::to_string(&pm)).unwrap();

    let out = Command::new(bin())
        .args([
            "thermal",
            fp_path.to_str().unwrap(),
            pm_path.to_str().unwrap(),
        ])
        .output()
        .expect("run thermal");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("die: min"), "{stdout}");
    assert!(stdout.contains("hot"), "{stdout}");

    // MGCG is the only solver, so `--solver` is an unknown flag.
    let out = Command::new(bin())
        .args([
            "thermal",
            fp_path.to_str().unwrap(),
            pm_path.to_str().unwrap(),
            "--solver",
            "mgcg",
        ])
        .output()
        .expect("run thermal");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown option --solver"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fleet_subcommand_streams_a_small_fleet() {
    let dir = std::env::temp_dir().join("statobd_cli_fleet");
    std::fs::create_dir_all(&dir).unwrap();
    let spec = dir.join("spec.json");
    let out = Command::new(bin())
        .args(["template", spec.to_str().unwrap()])
        .output()
        .expect("run template");
    assert!(out.status.success(), "template failed: {out:?}");

    let out = Command::new(bin())
        .args([
            "fleet",
            spec.to_str().unwrap(),
            "--chips",
            "500",
            "--grid",
            "6",
            "--seed",
            "7",
        ])
        .output()
        .expect("run fleet");
    assert!(out.status.success(), "fleet failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("fleet:"), "{stdout}");
    assert!(stdout.contains("chips/s"), "{stdout}");
    assert!(stdout.contains("weakest"), "{stdout}");
    assert!(stdout.contains("quantile"), "{stdout}");

    // --json emits one machine-readable report that parses back.
    let out = Command::new(bin())
        .args([
            "fleet",
            spec.to_str().unwrap(),
            "--chips",
            "500",
            "--grid",
            "6",
            "--seed",
            "7",
            "--json",
        ])
        .output()
        .expect("run fleet --json");
    assert!(out.status.success(), "fleet --json failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    use statobd::num::json::{FromJson, Json};
    let value = Json::parse(&stdout).expect("fleet --json output parses");
    let report = statobd::FleetReport::from_json(&value).expect("fleet report schema");
    assert_eq!(report.aggregates.chips, 500);
    assert_eq!(report.aggregates.seed, 7);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fleet_rejects_degenerate_flags_at_parse_time() {
    for (flag, value) in [
        ("--chips", "0"),
        ("--shards", "0"),
        ("--threads", "0"),
        ("--budget", "0"),
        ("--budget", "1.5"),
        ("--grid", "0"),
    ] {
        let out = Command::new(bin())
            .args(["fleet", "C1", flag, value])
            .output()
            .expect("run fleet");
        assert!(!out.status.success(), "{flag} {value} accepted");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "{flag} {value}: {stderr}");
    }
}

#[test]
fn fleet_suggests_profiles_on_typo() {
    let out = Command::new(bin())
        .args(["fleet", "C1", "--profile", "datacentre"])
        .output()
        .expect("run fleet");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("did you mean"), "{stderr}");
    assert!(stderr.contains("datacenter"), "{stderr}");
}
