//! YCSB-like workload driver with Zipfian key popularity.

use crate::lsm::LsmStore;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use simcore::Cpu;

/// The classic YCSB mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum YcsbMix {
    /// 50% reads / 50% updates.
    A,
    /// 95% reads / 5% updates.
    B,
    /// 100% reads.
    C,
    /// Read-latest: 95% reads skewed to recent inserts / 5% inserts.
    D,
    /// Short scans (95%) + inserts (5%).
    E,
    /// Read-modify-write.
    F,
}

impl YcsbMix {
    /// All mixes.
    pub const ALL: [YcsbMix; 6] = [
        YcsbMix::A,
        YcsbMix::B,
        YcsbMix::C,
        YcsbMix::D,
        YcsbMix::E,
        YcsbMix::F,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            YcsbMix::A => "YCSB-A",
            YcsbMix::B => "YCSB-B",
            YcsbMix::C => "YCSB-C",
            YcsbMix::D => "YCSB-D",
            YcsbMix::E => "YCSB-E",
            YcsbMix::F => "YCSB-F",
        }
    }
}

/// A loaded key space + driver state.
pub struct Workload {
    mix: YcsbMix,
    inserted: u64,
    rng: SmallRng,
    zipf: Zipf,
    value: Vec<u8>,
}

impl Workload {
    /// Load `keys` records of `value_bytes` each into the store.
    pub fn load(
        cpu: &mut Cpu,
        store: &mut LsmStore,
        mix: YcsbMix,
        keys: u64,
        value_bytes: usize,
    ) -> crate::Result<Workload> {
        let value = vec![0xabu8; value_bytes];
        for i in 0..keys {
            store.put(cpu, &key_of(i), &value)?;
        }
        Ok(Workload {
            mix,
            inserted: keys,
            rng: SmallRng::seed_from_u64(0x5eed1),
            zipf: Zipf::new(keys, 0.99),
            value,
        })
    }

    /// Attach a driver to an *already-loaded* key space with its own RNG
    /// stream.
    ///
    /// A multi-session server loads the store once ([`Workload::load`]) and
    /// then attaches one driver per client stream with a distinct `seed`, so
    /// the streams issue different (but per-seed deterministic) op
    /// sequences against shared data.
    pub fn attach(mix: YcsbMix, keys: u64, value_bytes: usize, seed: u64) -> Workload {
        Workload {
            mix,
            inserted: keys,
            rng: SmallRng::seed_from_u64(seed),
            zipf: Zipf::new(keys, 0.99),
            value: vec![0xabu8; value_bytes],
        }
    }

    /// Run `ops` operations; returns `(reads, writes, misses)`.
    pub fn run(
        &mut self,
        cpu: &mut Cpu,
        store: &mut LsmStore,
        ops: u64,
    ) -> crate::Result<(u64, u64, u64)> {
        let (mut reads, mut writes, mut misses) = (0u64, 0u64, 0u64);
        for _ in 0..ops {
            let roll: f64 = self.rng.gen();
            match self.mix {
                YcsbMix::A | YcsbMix::B | YcsbMix::C => {
                    let read_frac = match self.mix {
                        YcsbMix::A => 0.5,
                        YcsbMix::B => 0.95,
                        _ => 1.0,
                    };
                    let k = key_of(self.zipf.next(&mut self.rng));
                    if roll < read_frac {
                        reads += 1;
                        if store.get(cpu, &k).is_none() {
                            misses += 1;
                        }
                    } else {
                        writes += 1;
                        let v = self.value.clone();
                        store.put(cpu, &k, &v)?;
                    }
                }
                YcsbMix::D => {
                    if roll < 0.95 {
                        // Read-latest: bias toward the most recent inserts.
                        // With nothing inserted yet there is no "latest" —
                        // reading key 0 anyway would count a phantom miss
                        // and skew the mix's hit rate, so skip the op.
                        if self.inserted == 0 {
                            continue;
                        }
                        let back = self.zipf.next(&mut self.rng) % self.inserted;
                        let k = key_of(self.inserted - 1 - back);
                        reads += 1;
                        if store.get(cpu, &k).is_none() {
                            misses += 1;
                        }
                    } else {
                        let k = key_of(self.inserted);
                        self.inserted += 1;
                        writes += 1;
                        let v = self.value.clone();
                        store.put(cpu, &k, &v)?;
                    }
                }
                YcsbMix::E => {
                    if roll < 0.95 {
                        let start = key_of(self.zipf.next(&mut self.rng));
                        let got = store.scan(cpu, &start, 20);
                        reads += got.len() as u64;
                    } else {
                        let k = key_of(self.inserted);
                        self.inserted += 1;
                        writes += 1;
                        let v = self.value.clone();
                        store.put(cpu, &k, &v)?;
                    }
                }
                YcsbMix::F => {
                    let k = key_of(self.zipf.next(&mut self.rng));
                    reads += 1;
                    let old = store.get(cpu, &k);
                    if old.is_none() {
                        misses += 1;
                    }
                    writes += 1;
                    let v = self.value.clone();
                    store.put(cpu, &k, &v)?;
                }
            }
        }
        Ok((reads, writes, misses))
    }
}

fn key_of(i: u64) -> Vec<u8> {
    format!("user{i:012}").into_bytes()
}

/// Approximate Zipfian sampler (Gray et al. rejection-free approximation).
struct Zipf {
    n: u64,
    theta: f64,
    zetan: f64,
    alpha: f64,
    eta: f64,
}

impl Zipf {
    fn new(n: u64, theta: f64) -> Zipf {
        let n = n.max(1);
        let zetan: f64 = (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        let zeta2: f64 = (1..=2u64.min(n))
            .map(|i| 1.0 / (i as f64).powf(theta))
            .sum();
        Zipf {
            n,
            theta,
            zetan,
            alpha: 1.0 / (1.0 - theta),
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    fn next(&mut self, rng: &mut SmallRng) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let v = ((self.eta * u - self.eta + 1.0).powf(self.alpha) * self.n as f64) as u64;
        v.min(self.n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lsm::LsmConfig;
    use simcore::ArchConfig;

    fn rig() -> (Cpu, LsmStore) {
        let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
        let store = LsmStore::open(
            &mut cpu,
            LsmConfig {
                memtable_bytes: 32 * 1024,
                fanout: 4,
                wal_group: 16,
            },
        )
        .unwrap();
        (cpu, store)
    }

    #[test]
    fn every_mix_runs_without_misses_on_loaded_keys() {
        for mix in YcsbMix::ALL {
            let (mut cpu, mut store) = rig();
            let mut w = Workload::load(&mut cpu, &mut store, mix, 500, 64).unwrap();
            let (reads, writes, misses) = w.run(&mut cpu, &mut store, 300).unwrap();
            assert!(reads + writes > 0, "{}", mix.name());
            assert_eq!(misses, 0, "{}: all loaded keys must be found", mix.name());
        }
    }

    #[test]
    fn read_latest_on_empty_store_skips_instead_of_phantom_missing() {
        // YCSB-D starting from an empty key space: until the first insert
        // lands there is no latest key to read. Pre-fix the driver read
        // `user000000000000` (never inserted) and piled up spurious misses.
        let (mut cpu, mut store) = rig();
        let mut w = Workload::load(&mut cpu, &mut store, YcsbMix::D, 0, 64).unwrap();
        let (reads, writes, misses) = w.run(&mut cpu, &mut store, 400).unwrap();
        assert_eq!(misses, 0, "reads must target only inserted keys");
        assert!(writes > 0, "the 5% insert arm still runs");
        // Once keys exist, read-latest resumes (some reads happen).
        assert!(reads > 0, "reads resume after the first insert");
    }

    #[test]
    fn zipf_is_skewed_toward_small_ranks() {
        let mut z = Zipf::new(1000, 0.99);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut head = 0u64;
        const N: u64 = 10_000;
        for _ in 0..N {
            if z.next(&mut rng) < 100 {
                head += 1;
            }
        }
        // Top 10% of keys should absorb well over half the draws.
        assert!(head > N / 2, "zipf skew too weak: {head}/{N}");
    }

    #[test]
    fn mix_c_is_read_only() {
        let (mut cpu, mut store) = rig();
        let mut w = Workload::load(&mut cpu, &mut store, YcsbMix::C, 200, 64).unwrap();
        let (_, writes, _) = w.run(&mut cpu, &mut store, 200).unwrap();
        assert_eq!(writes, 0);
    }
}
