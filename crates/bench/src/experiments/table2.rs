//! Table 2: computational cost of the crypto schemes — PrivApprox's
//! XOR splitting vs RSA, Goldwasser-Micali and Paillier.
//!
//! All four schemes run for real on this host (the paper additionally
//! reports phone/laptop columns; EXPERIMENTS.md compares against its
//! published numbers). Each "operation" encrypts or decrypts one
//! 11-bucket encoded answer (13 bytes / 104 bits): RSA and Paillier
//! treat it as one plaintext, Goldwasser-Micali pays per bit, and the
//! XOR scheme splits/combines two shares.

use crate::gm::GmKeyPair;
use crate::paillier::PaillierKeyPair;
use crate::rsa::RsaKeyPair;
use crate::ubig::UBig;
use privapprox_crypto::xor::{combine, XorSplitter};
use privapprox_types::BitVec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::time::Instant;

/// One Table 2 row.
#[derive(Debug, Clone, Serialize)]
pub struct Table2Row {
    /// Scheme name.
    pub scheme: String,
    /// Encryptions per second.
    pub enc_ops_per_sec: f64,
    /// Decryptions per second.
    pub dec_ops_per_sec: f64,
    /// How many times slower than XOR at encryption.
    pub enc_slowdown_vs_xor: f64,
    /// How many times slower than XOR at decryption.
    pub dec_slowdown_vs_xor: f64,
}

fn rate<F: FnMut()>(iters: u32, mut f: F) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    iters as f64 / start.elapsed().as_secs_f64()
}

/// Runs the comparison with `key_bits` moduli. The paper uses
/// 1024-bit keys; tests use smaller ones for speed.
///
/// `pk_iters` bounds the public-key iteration counts (their per-op
/// costs are milliseconds); the XOR scheme always runs 100× more.
pub fn run(key_bits: usize, pk_iters: u32, seed: u64) -> Vec<Table2Row> {
    let mut rng = StdRng::seed_from_u64(seed);
    let answer = BitVec::one_hot(11, 3);
    let message = privapprox_crypto::encode_answer(
        privapprox_types::QueryId::new(privapprox_types::ids::AnalystId(1), 1),
        &answer,
    );
    let message_bits = BitVec::from_bools(
        message
            .iter()
            .flat_map(|b| (0..8).map(move |i| (b >> i) & 1 == 1)),
    );

    // --- XOR (PrivApprox) ---
    let splitter = XorSplitter::new(2);
    let xor_iters = pk_iters.saturating_mul(100).max(10_000);
    let enc_xor = rate(xor_iters, || {
        std::hint::black_box(splitter.split(&message, &mut rng));
    });
    let shares = splitter.split(&message, &mut rng);
    let dec_xor = rate(xor_iters, || {
        std::hint::black_box(combine(&shares).unwrap());
    });

    // --- RSA ---
    let rsa = RsaKeyPair::generate(key_bits, &mut rng);
    let m = UBig::from_bytes_be(&message);
    let enc_rsa = rate(pk_iters, || {
        std::hint::black_box(rsa.encrypt(&m));
    });
    let ct = rsa.encrypt(&m);
    let dec_rsa = rate(pk_iters.max(4) / 4, || {
        std::hint::black_box(rsa.decrypt(&ct));
    });

    // --- Goldwasser-Micali (per-bit) ---
    let gm = GmKeyPair::generate(key_bits, &mut rng);
    let gm_iters = (pk_iters / 8).max(2);
    let enc_gm = rate(gm_iters, || {
        std::hint::black_box(gm.encrypt_bits(&message_bits, &mut rng));
    });
    let cts = gm.encrypt_bits(&message_bits, &mut rng);
    let dec_gm = rate(gm_iters, || {
        std::hint::black_box(gm.decrypt_bits(&cts));
    });

    // --- Paillier ---
    let paillier = PaillierKeyPair::generate(key_bits, &mut rng);
    let pai_iters = (pk_iters / 8).max(2);
    let enc_pai = rate(pai_iters, || {
        std::hint::black_box(paillier.encrypt(&m, &mut rng));
    });
    let pct = paillier.encrypt(&m, &mut rng);
    let dec_pai = rate(pai_iters, || {
        std::hint::black_box(paillier.decrypt(&pct));
    });

    let row = |scheme: &str, enc: f64, dec: f64| Table2Row {
        scheme: scheme.to_string(),
        enc_ops_per_sec: enc,
        dec_ops_per_sec: dec,
        enc_slowdown_vs_xor: enc_xor / enc,
        dec_slowdown_vs_xor: dec_xor / dec,
    };
    vec![
        row("RSA", enc_rsa, dec_rsa),
        row("Goldwasser-Micali", enc_gm, dec_gm),
        row("Paillier", enc_pai, dec_pai),
        row("PrivApprox (XOR)", enc_xor, dec_xor),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xor_dominates_every_public_key_scheme() {
        // Small keys keep the debug-mode test fast; the ordering is
        // what Table 2 demonstrates and it holds at every key size.
        // Magnitudes are the release-mode `table2` binary's to report:
        // an unoptimised timing ratio asserted against a constant
        // (RSA encryption reads 4.8–5 here) fails on a noisy run.
        let rows = run(256, 8, 42);
        assert_eq!(rows.len(), 4);
        let xor = rows.last().unwrap();
        assert_eq!(xor.scheme, "PrivApprox (XOR)");
        for r in &rows[..3] {
            assert!(
                r.enc_slowdown_vs_xor > 1.0,
                "{}: enc slowdown only {}",
                r.scheme,
                r.enc_slowdown_vs_xor
            );
            assert!(
                r.dec_slowdown_vs_xor > 1.0,
                "{}: dec slowdown only {}",
                r.scheme,
                r.dec_slowdown_vs_xor
            );
        }
        assert!(rows.iter().all(|r| r.enc_ops_per_sec > 0.0));
    }
}
