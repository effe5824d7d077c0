//! `titserved` — the replay-as-a-service daemon and its client.
//!
//! ```text
//! titserved serve [--port N] [--workers W] [--no-cache]
//! titserved query --server http://host:port --trace <trace> --platform <spec.json> \
//!           --ranks <N> --rate <instr/s> [--engine smpi|msg] [--threads N]
//! ```
//!
//! `serve` binds (port 0 = ephemeral), prints `listening http://ADDR`
//! on stdout, and runs until `POST /shutdown`. `query` reads the
//! platform spec file, embeds it inline, posts the what-if query, and
//! prints the manifest body verbatim on stdout (the cache disposition
//! goes to stderr) — so its output can be byte-compared against a
//! `titreplay --manifest` file.

use std::io::Write;

use tit_replay::simkernel::obs::json_string;
use titserved::client;
use titserved::server::{Server, ServerConfig};

fn usage() -> ! {
    eprintln!(
        "usage: titserved serve [--port <N>] [--workers <W>] [--no-cache]\n\
         \x20      titserved query --server <http://host:port> --trace <trace> \
         --platform <spec.json> --ranks <N> --rate <instr/s>\n\
         \x20          [--engine smpi|msg] [--threads <N>]"
    );
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("titserved: {msg}");
    std::process::exit(1);
}

fn serve(args: &[String]) -> ! {
    let mut port = 0u16;
    let mut config = ServerConfig::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--port" => {
                port = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--workers" => {
                let w: usize = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                if w == 0 {
                    fail("--workers must be >= 1");
                }
                config.workers = w;
            }
            "--no-cache" => config.sidecar = false,
            _ => usage(),
        }
    }
    let server = Server::bind(("127.0.0.1", port), config)
        .unwrap_or_else(|e| fail(&format!("cannot bind 127.0.0.1:{port}: {e}")));
    // Scripts read the ephemeral port from this line; flush so a
    // pipe-buffered stdout does not delay it.
    println!("listening http://{}", server.addr());
    std::io::stdout().flush().ok();
    server.run().unwrap_or_else(|e| fail(&e.to_string()));
    std::process::exit(0);
}

fn query(args: &[String]) -> ! {
    let mut server = None;
    let mut trace = None;
    let mut platform = None;
    let mut ranks: Option<u32> = None;
    let mut rate: Option<f64> = None;
    let mut engine = None;
    let mut threads: Option<usize> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--server" => server = it.next().cloned(),
            "--trace" => trace = it.next().cloned(),
            "--platform" => platform = it.next().cloned(),
            "--ranks" => ranks = it.next().and_then(|v| v.parse().ok()),
            "--rate" => rate = it.next().and_then(|v| v.parse().ok()),
            "--engine" => engine = it.next().cloned(),
            "--threads" => threads = it.next().and_then(|v| v.parse().ok()),
            _ => usage(),
        }
    }
    let (Some(server), Some(trace), Some(platform), Some(ranks), Some(rate)) =
        (server, trace, platform, ranks, rate)
    else {
        usage()
    };
    let spec = std::fs::read_to_string(&platform)
        .unwrap_or_else(|e| fail(&format!("cannot read {platform}: {e}")));
    let mut config = format!("\"rate\": {rate}");
    if let Some(e) = engine {
        config.push_str(&format!(", \"engine\": {}", json_string(&e)));
    }
    if let Some(t) = threads {
        config.push_str(&format!(", \"threads\": {t}"));
    }
    let body = format!(
        "{{\"trace\": {}, \"ranks\": {ranks}, \"platform\": {}, \"config\": {{{config}}}}}",
        json_string(&trace),
        spec.trim_end(),
    );
    let resp = client::predict(&server, &body)
        .unwrap_or_else(|e| fail(&format!("request to {server} failed: {e}")));
    if let Some(disposition) = resp.headers.get("x-titserved-cache") {
        eprintln!("cache: {disposition}");
    }
    let mut out = std::io::stdout();
    out.write_all(&resp.body).ok();
    out.flush().ok();
    std::process::exit(if resp.status == 200 { 0 } else { 1 });
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("serve") => serve(&argv[1..]),
        Some("query") => query(&argv[1..]),
        _ => usage(),
    }
}
