//! Workload generation: deterministic payloads and the YCSB zipfian key
//! distribution used by the §4.3 replicated hash-table experiment.

use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::Rng;

/// Deterministic payload for request `id`: the id in the first eight bytes
/// (little-endian), then a fill whose byte `i` is `31 i + id[i mod 8]`
/// (mod 256). Lets checkers reconstruct the broadcast set without storing
/// it.
pub fn payload(id: u64, size: usize) -> Bytes {
    // The fill repeats every 256 bytes, so one period is computed and the
    // rest copied from it, in doubling runs.
    const PERIOD: usize = 256;
    let idb = id.to_le_bytes();
    let mut v = Vec::with_capacity(size);
    v.extend(idb.iter().take(size));
    v.extend(
        (8..size.min(8 + PERIOD)).map(|i| (i as u8).wrapping_mul(31).wrapping_add(idb[i % 8])),
    );
    while v.len() < size {
        // `v[8..]` is a whole number of periods here.
        let run = (v.len() - 8).min(size - v.len());
        v.extend_from_within(8..8 + run);
    }
    Bytes::from(v)
}

/// Recover the request id embedded by [`payload`] (requires `size >= 8`;
/// shorter payloads zero-extend).
pub fn payload_id(p: &[u8]) -> u64 {
    let mut b = [0u8; 8];
    let n = p.len().min(8);
    b[..n].copy_from_slice(&p[..n]);
    u64::from_le_bytes(b)
}

/// YCSB's zipfian generator (Gray et al.'s algorithm, as used in the YCSB
/// core workloads): keys in `[0, n)` with skew `theta` (YCSB-load uses 0.99).
#[derive(Clone, Debug)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    zeta2: f64,
}

impl Zipfian {
    /// Precompute the distribution over `n` keys with skew `theta`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "empty key space");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0,1)");
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipfian {
            n,
            theta,
            alpha,
            zetan,
            eta,
            zeta2,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Direct sum; n is at most a few million in our workloads and this
        // runs once per generator.
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// Number of keys.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Draw one key: key 0 is the hottest.
    pub fn sample(&self, rng: &mut SmallRng) -> u64 {
        let u: f64 = rng.random();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let k = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        k.min(self.n - 1)
    }

    /// The zeta constants (exposed for tests).
    pub fn constants(&self) -> (f64, f64) {
        (self.zetan, self.zeta2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn payload_embeds_id() {
        for id in [0u64, 1, 255, 1 << 40, u64::MAX] {
            let p = payload(id, 10);
            assert_eq!(p.len(), 10);
            assert_eq!(payload_id(&p), id);
        }
    }

    #[test]
    fn short_payload_truncates_id() {
        let p = payload(0x0102, 2);
        assert_eq!(p.len(), 2);
        assert_eq!(payload_id(&p), 0x0102);
        let p1 = payload(7, 1);
        assert_eq!(payload_id(&p1), 7);
    }

    /// The definition, one byte at a time.
    fn payload_bytewise(id: u64, size: usize) -> Vec<u8> {
        let idb = id.to_le_bytes();
        (0..size)
            .map(|i| {
                if i < 8 {
                    idb[i]
                } else {
                    (i as u8).wrapping_mul(31).wrapping_add(idb[i % 8])
                }
            })
            .collect()
    }

    #[test]
    fn payload_matches_its_bytewise_definition() {
        let ids = [0, 1, 0xff, 0x0102_0304_0506_0708, 1 << 40, u64::MAX];
        let sizes = (0..=600).chain([8191, 8192, 8193, 1 << 20]);
        for size in sizes {
            for id in ids {
                assert_eq!(
                    payload(id, size)[..],
                    payload_bytewise(id, size)[..],
                    "id {id:#x} size {size}"
                );
            }
        }
    }

    #[test]
    fn payloads_differ_across_ids() {
        assert_ne!(payload(1, 100), payload(2, 100));
        assert_eq!(payload(3, 100), payload(3, 100));
    }

    #[test]
    fn zipfian_is_deterministic_per_seed() {
        let z = Zipfian::new(1000, 0.99);
        let mut a = SmallRng::seed_from_u64(9);
        let mut b = SmallRng::seed_from_u64(9);
        let xs: Vec<u64> = (0..100).map(|_| z.sample(&mut a)).collect();
        let ys: Vec<u64> = (0..100).map(|_| z.sample(&mut b)).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn zipfian_keys_in_range() {
        let z = Zipfian::new(100, 0.99);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 100);
        }
    }

    #[test]
    fn zipfian_is_skewed() {
        let z = Zipfian::new(10_000, 0.99);
        let mut rng = SmallRng::seed_from_u64(4);
        let mut hot = 0u64;
        let samples = 100_000;
        for _ in 0..samples {
            if z.sample(&mut rng) < 10 {
                hot += 1;
            }
        }
        // With theta=.99 over 10k keys, the top-10 keys draw a large share
        // (analytically ~30%); uniform would give 0.1%.
        let share = hot as f64 / samples as f64;
        assert!(share > 0.2, "hot share {share}");
    }

    #[test]
    fn zipfian_low_theta_is_flatter() {
        let skewed = Zipfian::new(1000, 0.99);
        let flat = Zipfian::new(1000, 0.01);
        let mut rng = SmallRng::seed_from_u64(5);
        let count_hot =
            |z: &Zipfian, rng: &mut SmallRng| (0..50_000).filter(|_| z.sample(rng) == 0).count();
        let hs = count_hot(&skewed, &mut rng);
        let hf = count_hot(&flat, &mut rng);
        assert!(hs > hf * 5, "skewed {hs} flat {hf}");
    }

    #[test]
    #[should_panic]
    fn zipfian_rejects_empty_keyspace() {
        let _ = Zipfian::new(0, 0.99);
    }
}
