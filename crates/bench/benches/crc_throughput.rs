//! CRC engine-tier throughput: every [`EngineKind`] across representative
//! catalog algorithms (E14), now covering the hardware-accelerated tiers.
//!
//! The machine-readable counterpart (acceptance-gate numbers, JSON) is
//! the `crc_throughput` binary: `cargo run --release --bin crc_throughput`.

use crckit::{catalog, Crc, EngineKind};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_engines(c: &mut Criterion) {
    let data: Vec<u8> = (0..65_536u32).map(|i| (i * 31 + 7) as u8).collect();
    let mut group = c.benchmark_group("crc_engines");
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.sample_size(20);
    for params in [
        catalog::CRC32_ISO_HDLC,
        catalog::CRC32_ISCSI,
        catalog::CRC32_MEF,
        catalog::CRC32_BZIP2, // unreflected path
        catalog::CRC32_XFER,  // sparse generator
        catalog::CRC64_XZ,
        catalog::CRC64_GO_ISO, // sparse 64-bit generator
        catalog::CRC16_ARC,
    ] {
        let crc = Crc::new(params);
        for kind in EngineKind::ALL {
            if kind == EngineKind::Bitwise {
                continue; // ~100× slower; measured by the binary instead
            }
            group.bench_with_input(
                BenchmarkId::new(kind.name(), params.name),
                &data,
                |b, data| b.iter(|| crc.checksum_with(kind, data)),
            );
        }
    }
    group.finish();
}

fn bench_frame_sized_batches(c: &mut Criterion) {
    // MTU-sized frames through the batch API: the netsim per-frame shape.
    let frames: Vec<Vec<u8>> = (0..64u32)
        .map(|i| (0..1514u32).map(|j| (i * 7 + j * 13) as u8).collect())
        .collect();
    let refs: Vec<&[u8]> = frames.iter().map(|f| f.as_slice()).collect();
    let total: u64 = refs.iter().map(|f| f.len() as u64).sum();
    let mut group = c.benchmark_group("crc_frame_batch");
    group.throughput(Throughput::Bytes(total));
    group.sample_size(20);
    for kind in [EngineKind::Slice16, EngineKind::Clmul] {
        let crc = Crc::try_with_engine(catalog::CRC32_ISO_HDLC, kind).expect("valid catalog entry");
        group.bench_with_input(
            BenchmarkId::new("batch_1514B", kind.name()),
            &refs,
            |b, refs| b.iter(|| crc.checksum_batch(refs)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_engines, bench_frame_sized_batches);
criterion_main!(benches);
