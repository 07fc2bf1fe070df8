//! `soc-client` — pipe an NDJSON session to a listening `soc-serve`.
//!
//! ```text
//! soc-client PATH|HOST:PORT [--fail-on-error]
//! ```
//!
//! Connects to a `soc-serve --listen` socket (Unix path or TCP
//! address), streams stdin to the server line-by-line (raw bytes: a line
//! that is not UTF-8 is forwarded too, and the server answers it with a
//! `Protocol` error), half-closes the write side at stdin EOF, and
//! prints every response frame to stdout
//! until the server's final `Bye`. The transcript on stdout is exactly
//! what the same input would produce over stdin/stdout mode (modulo the
//! `Bye` frame's connection-scoped counters), so replies can be diffed
//! against goldens or a local replay.
//!
//! Exit codes:
//!
//! * `0` — clean session: the server answered a final `Bye`;
//! * `1` — transport failure: connect, read, or write error, a response
//!   that is not a valid server frame, or a stream that ended without
//!   `Bye`;
//! * `2` — usage error;
//! * `3` — with `--fail-on-error`: the session completed but at least
//!   one `Error` frame was answered (useful in CI pipelines).

use soctest_multisite::service::{ClientStream, ListenAddr, ServerFrame};
use std::io::{BufRead, BufReader, Write};
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: soc-client PATH|HOST:PORT [--fail-on-error]\n\
         pipes NDJSON optimizer frames from stdin to a listening soc-serve \
         and prints the responses; exits 3 with --fail-on-error if any \
         Error frame was answered"
    );
    std::process::exit(2)
}

fn main() -> ExitCode {
    let mut addr_text = None;
    let mut fail_on_error = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--fail-on-error" => fail_on_error = true,
            _ if addr_text.is_none() && !arg.starts_with('-') => addr_text = Some(arg),
            _ => usage(),
        }
    }
    let Some(addr_text) = addr_text else { usage() };
    let addr = match ListenAddr::parse(&addr_text) {
        Ok(addr) => addr,
        Err(message) => {
            eprintln!("invalid address: {message}");
            return ExitCode::from(2);
        }
    };
    let stream = match ClientStream::connect(&addr) {
        Ok(stream) => stream,
        Err(error) => {
            eprintln!("failed to connect to {addr}: {error}");
            return ExitCode::FAILURE;
        }
    };
    let mut write_half = match stream.try_clone() {
        Ok(clone) => clone,
        Err(error) => {
            eprintln!("failed to clone connection: {error}");
            return ExitCode::FAILURE;
        }
    };

    // Uplink on its own thread: stdin may be an interactive pipe that
    // only closes after responses have started flowing, so the two
    // directions must not block each other. Never joined — if the
    // server ends the session (a drain) while stdin is still open, the
    // uplink stays parked on a stdin read and exits with the process.
    // The session verdict is the downlink's: a server that stopped
    // listening mid-uplink either still answers its Bye (fine) or
    // closes without one (reported below).
    std::thread::spawn(move || {
        let send = |write_half: &mut ClientStream| -> std::io::Result<()> {
            let mut stdin = std::io::stdin().lock();
            let mut line = Vec::new();
            while stdin.read_until(b'\n', &mut line)? > 0 {
                if line.last() != Some(&b'\n') {
                    line.push(b'\n');
                }
                write_half.write_all(&line)?;
                line.clear();
            }
            Ok(())
        };
        if let Err(error) = send(&mut write_half) {
            eprintln!("uplink error: {error}");
        }
        // Stdin EOF: tell the server "no more frames" while keeping the
        // read side open for the remaining responses and the Bye.
        write_half.shutdown_write();
    });

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut saw_bye = false;
    let mut saw_error = false;
    let mut outcome = ExitCode::SUCCESS;
    for line in BufReader::new(stream).lines() {
        let line = match line {
            Ok(line) => line,
            Err(error) => {
                eprintln!("read error: {error}");
                outcome = ExitCode::FAILURE;
                break;
            }
        };
        match serde_json::from_str::<ServerFrame>(&line) {
            Ok(ServerFrame::Bye(_)) => saw_bye = true,
            Ok(ServerFrame::Error(_)) => saw_error = true,
            Ok(ServerFrame::Result(_)) => {}
            Err(error) => {
                eprintln!("invalid server frame ({error}): {line}");
                outcome = ExitCode::FAILURE;
                break;
            }
        }
        if writeln!(out, "{line}").and_then(|()| out.flush()).is_err() {
            // A closed stdout (e.g. `head`) is not a session failure,
            // but there is no one left to print for.
            break;
        }
    }

    if outcome != ExitCode::SUCCESS {
        return outcome;
    }
    if !saw_bye {
        eprintln!("connection closed without a Bye frame");
        return ExitCode::FAILURE;
    }
    if fail_on_error && saw_error {
        return ExitCode::from(3);
    }
    ExitCode::SUCCESS
}
