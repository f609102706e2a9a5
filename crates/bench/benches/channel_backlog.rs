//! Criterion micro-benchmark of the reliable channel under backlog: an
//! endpoint pair drains 1k and 16k queued messages over a lossless,
//! in-order wire. Each message costs one data segment and one ACK, and
//! after every delivered batch the sender is asked for its next wakeup,
//! as `ChannelPort::flush` does. Throughput is reported per message, so
//! the two sizes read alike (the larger queue no longer fits in cache,
//! which costs tens of percent) when the endpoint's bookkeeping is
//! independent of how much is queued behind the window, and an order of
//! magnitude apart if anything rescans the queue.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use sc_net::channel::{ChannelConfig, Endpoint};
use sc_net::SimTime;

/// Move every segment `from` has due to `to`; returns how many moved.
fn transfer(from: &mut Endpoint, to: &mut Endpoint, now: SimTime, wire: &mut Vec<u8>) -> usize {
    let mut moved = 0;
    while let Some(seg) = from.poll_transmit(now) {
        wire.clear();
        seg.write_to(wire);
        to.on_segment(wire, now, |ev| {
            black_box(ev);
        })
        .expect("own segments parse");
        moved += 1;
    }
    moved
}

fn queued_pair(messages: usize) -> (Endpoint, Endpoint) {
    let cfg = ChannelConfig::default();
    let (mut a, mut b) = (Endpoint::connect(cfg), Endpoint::listen(cfg));
    let mut wire = Vec::new();
    while transfer(&mut a, &mut b, SimTime::ZERO, &mut wire)
        + transfer(&mut b, &mut a, SimTime::ZERO, &mut wire)
        > 0
    {}
    for i in 0..messages {
        a.send((i as u64).to_be_bytes().repeat(8));
    }
    (a, b)
}

fn drain((mut a, mut b): (Endpoint, Endpoint)) {
    let now = SimTime::from_millis(1);
    let mut wire = Vec::with_capacity(128);
    while a.backlog() > 0 {
        transfer(&mut a, &mut b, now, &mut wire);
        transfer(&mut b, &mut a, now, &mut wire);
        black_box(a.next_wakeup());
    }
    black_box(b.stats().messages_delivered);
}

fn bench_channel_backlog(c: &mut Criterion) {
    let mut g = c.benchmark_group("channel_backlog");
    for messages in [1_000usize, 16_000] {
        g.throughput(Throughput::Elements(messages as u64));
        g.bench_function(format!("drain_{messages}"), |b| {
            b.iter_batched(|| queued_pair(messages), drain, BatchSize::LargeInput)
        });
    }
    g.finish();
}

criterion_group!(benches, bench_channel_backlog);
criterion_main!(benches);
