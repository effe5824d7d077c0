//! Trace format throughput: emit, parse, pack, and unpack rates on a
//! realistic LU trace, across the text and binary ingestion paths.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use tit_replay::acquisition::{acquire, CompilerOpt, Instrumentation};
use tit_replay::prelude::*;
use tit_replay::titrace::{binfmt, parse, stream, write};

fn trace_io(c: &mut Criterion) {
    let lu = LuConfig::new(LuClass::S, 8).with_steps(10);
    let trace = acquire(lu.sources(), Instrumentation::Minimal, CompilerOpt::O3, 1).trace;
    let actions = trace.len() as u64;
    let text = write::to_string(&trace);

    let mut g = c.benchmark_group("trace_io");
    g.throughput(Throughput::Elements(actions));
    g.bench_function("emit", |b| b.iter(|| write::to_string(&trace)));
    g.bench_function("parse", |b| {
        b.iter(|| parse::parse_merged(&text, 8).expect("parse"))
    });
    g.bench_function("validate", |b| {
        b.iter(|| tit_replay::titrace::validate::validate(&trace))
    });
    g.finish();
}

fn trace_ingest(c: &mut Criterion) {
    let lu = LuConfig::new(LuClass::S, 16).with_steps(25);
    let trace = acquire(lu.sources(), Instrumentation::Minimal, CompilerOpt::O3, 1).trace;
    let actions = trace.len() as u64;
    let text = write::to_string(&trace);
    let packed = binfmt::encode(&trace);

    let mut g = c.benchmark_group("trace_ingest");
    g.throughput(Throughput::Elements(actions));
    g.bench_function("text_sequential", |b| {
        b.iter(|| stream::parse_merged_bytes(text.as_bytes(), 16).expect("parse"))
    });
    g.bench_function("pack", |b| b.iter(|| binfmt::encode(&trace)));
    g.bench_function("unpack", |b| {
        b.iter(|| binfmt::decode(&packed).expect("decode"))
    });
    g.finish();
}

criterion_group!(benches, trace_io, trace_ingest);
criterion_main!(benches);
