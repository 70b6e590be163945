//! The correctness gate: recorded outputs at each workload's committed
//! seed, and the checks every pass must meet at any seed.

/// Seed the paper digests were recorded at.
pub const PAPER_SEED: u64 = 42;

/// The 13 paper-cell digests at [`PAPER_SEED`], as pinned by the
/// experiments crate's `digest_pins` test.
pub const PAPER_DIGESTS: [(&str, u64); 13] = [
    ("table1/Reactive_Without_Cache", 0x47800b489ed93fe3),
    ("table1/Reactive_With_Cache", 0x1ad5656549033ee1),
    ("table1/NEEDS_ADDRESSING_Mode", 0x52d127518fab14b7),
    ("table1/LOCATION_FORWARD", 0x820130c21c46a4dd),
    ("table1/MEAD_Message", 0x8e5e0417fcd8c135),
    ("fig5/LOCATION_FORWARD@20", 0x9da9f25d7991f221),
    ("fig5/LOCATION_FORWARD@40", 0xfd7ce9dc9761b071),
    ("fig5/LOCATION_FORWARD@60", 0xcc76a92c66f2c2f9),
    ("fig5/LOCATION_FORWARD@80", 0xe8d8c44ccf2b651f),
    ("fig5/MEAD_Message@20", 0xfe86a26a4f19e82b),
    ("fig5/MEAD_Message@40", 0x838e3f85fdc41021),
    ("fig5/MEAD_Message@60", 0xbe5b1b333e4744fa),
    ("fig5/MEAD_Message@80", 0xfbd454d763cad9b9),
];

/// Seed of the pinned fleet digest.
pub const FLEET_SEED: u64 = 42;

/// `FleetOutcome::digest` of `FleetConfig::new(MeadFailover, 4000)` at
/// [`FLEET_SEED`].
pub const FLEET_DIGEST: u64 = 0xecf2d46e1d299f8f;

/// `base_seed` of the frozen `sweep-full.toml`.
pub const SWEEP_SEED: u64 = 2004;

/// `SweepOutcome::digest` of the frozen `sweep-full.toml` at
/// [`SWEEP_SEED`].
pub const SWEEP_DIGEST: u64 = 0xf159faadb28a1d42;

/// Schedules `explore` runs to exhaust the `pair` fixture with the
/// corpus's conflict relation loaded.
pub const PAIR_RUNS: usize = 252;

/// The set of outcome digests of the exhausted `pair` fixture.
pub const PAIR_OUTCOMES: [u64; 8] = [
    0x0e229df7da612b17,
    0x13d1c12531d113b8,
    0x4ce71679dd96e600,
    0x65e801cc430ccfb3,
    0xa763bf924b91025f,
    0xbd885ca922e6914a,
    0xc3b8e726afa41236,
    0xcfe1feb31bfa33a5,
];

/// `DecisionTrace::digest` of the minimized seeded-bug witness.
pub const WITNESS_DIGEST: u64 = 0xb402aa2ef998230e;

/// Decisions the minimized seeded-bug witness may keep.
pub const MAX_WITNESS_DECISIONS: usize = 10;

/// Every recorded value the gate compares against. [`Pins::default`]
/// holds the recorded ones; tests tamper with a copy to show the gate
/// is not vacuous.
#[derive(Clone, Debug, PartialEq)]
pub struct Pins {
    /// [`PAPER_DIGESTS`].
    pub paper: [(&'static str, u64); 13],
    /// [`FLEET_DIGEST`].
    pub fleet: u64,
    /// [`SWEEP_DIGEST`].
    pub sweep: u64,
    /// [`PAIR_RUNS`].
    pub pair_runs: usize,
    /// [`PAIR_OUTCOMES`].
    pub pair_outcomes: [u64; 8],
    /// [`WITNESS_DIGEST`].
    pub witness: u64,
    /// [`crate::corpus::CORPUS_DIGEST`].
    pub corpus: u64,
}

impl Default for Pins {
    fn default() -> Self {
        Pins {
            paper: PAPER_DIGESTS,
            fleet: FLEET_DIGEST,
            sweep: SWEEP_DIGEST,
            pair_runs: PAIR_RUNS,
            pair_outcomes: PAIR_OUTCOMES,
            witness: WITNESS_DIGEST,
            corpus: crate::corpus::CORPUS_DIGEST,
        }
    }
}

/// Checks that failed, and how many operations they cover.
///
/// A failed *check* means the program's output is wrong: a pinned
/// digest moved, a result did not repeat, the analysis pipeline broke.
/// It makes the run incorrect. A failed *operation* is one simulated
/// operation the system got wrong (an invariant violation or an
/// incomplete invocation): it is counted and reported, and the run's
/// other outputs stay checkable.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Gate {
    /// One line per failed check.
    pub failures: Vec<String>,
    /// One line per failed operation group.
    pub op_failures: Vec<String>,
    /// Operations covered by failed checks or failed operations.
    pub failed_ops: u64,
}

impl Gate {
    /// Records a failed check covering `ops` operations unless `ok`.
    pub fn check(&mut self, ok: bool, ops: u64, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
            self.failed_ops += ops;
        }
    }

    /// Records `ops` failed operations unless `ok`.
    pub fn operation(&mut self, ok: bool, ops: u64, what: impl FnOnce() -> String) {
        if !ok {
            self.op_failures.push(what());
            self.failed_ops += ops;
        }
    }

    /// Adds `other`'s failures to this gate.
    pub fn merge(&mut self, other: &Gate) {
        self.failures.extend(other.failures.iter().cloned());
        self.op_failures.extend(other.op_failures.iter().cloned());
        self.failed_ops += other.failed_ops;
    }

    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// 64-bit FNV-1a, the digest family the program itself uses.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes`.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds `v` little-endian.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}
