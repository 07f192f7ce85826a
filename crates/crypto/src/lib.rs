//! Cryptographic substrate for the PrivApprox reproduction.
//!
//! The paper's XOR-based split encryption (§3.2.3): light-weight
//! enough for "resource-constrained clients, e.g., smartphones and
//! sensors", and the reason the proxies need no synchronization.
//!
//! * [`chacha`] — ChaCha20 (RFC 7539), the keystream generator behind
//!   the XOR pads;
//! * [`xor`] — the PrivApprox scheme: split, combine, wire codec.
//!
//! The public-key schemes Table 2 compares against (RSA,
//! Goldwasser-Micali, Paillier) are benchmark comparators and live in
//! `privapprox-bench`.

pub mod chacha;
pub mod xor;

pub use chacha::ChaCha20;
pub use xor::{
    answer_wire_size, combine, combine_into, decode_answer, decode_answer_into, encode_answer,
    encode_answer_into, CombineError, Share, SlotPool, SplitScratch, XorSplitter,
};
