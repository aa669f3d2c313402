//! `secure-vm`: benchmark-generated, load/store-heavy programs packaged
//! by `Vendor::paper_default()` (DES, 128-byte lines) for a generated
//! processor, loaded with MAC integrity, and run on the protected `Vm`
//! with their `out` values checked against a native model.
//!
//! This is the only workload that runs real cryptography: one-time
//! pads, CBC-MAC and RSA key unwrap. Every fetch, load and store
//! decrypts and verifies a full line, and every store re-encrypts it
//! under a rotated sequence number.

use crate::timing::{timed, Span};
use crate::{mix_seed, record, sweep_rep, OpOutcome, Rep};
use padlock_core::vendor::{ProcessorIdentity, SecureLoader, SegmentKind, Vendor};
use padlock_core::IntegrityMode;
use padlock_exec::SweepPool;
use padlock_isa::{assemble, Program, Vm};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::time::{Duration, Instant};

/// Programs run per repetition.
pub const PROGRAMS: u64 = 4;
/// Data words each program walks (a power of two).
pub const WORDS: u32 = 128;
/// Passes over the data.
pub const ROUNDS: u32 = 2;
/// Where the code segment loads.
pub const CODE_BASE: u64 = 0x1000;
/// Where the data segment loads (`lui r1, 2`).
pub const DATA_BASE: u64 = 0x2_0000;
/// Seeds the processor identity's RSA key generation.
const PROCESSOR_SEED: u64 = 0xCAFE_0000;
/// Step budget; a generated program halts well inside it.
const MAX_STEPS: u64 = 1_000_000;
/// Lines read and rewritten directly per program in a traced run.
const DIRECT_LINES: u64 = 4;
/// Direct read/write calls per line in a traced run.
const DIRECT_CALLS: u64 = 8;

/// One generated program: a pass of dependent load–combine–store
/// updates over a seeded word array,
/// `A[j] = A[i]·m + A[j] ^ acc; acc += A[j]` with `j = (i·k + r) mod N`,
/// emitting `acc` after every pass.
pub struct GenProgram {
    index: u64,
    name: String,
    program: Program,
    data: Vec<u8>,
    expected: Vec<u32>,
}

impl GenProgram {
    /// Generates program `index` from the workload seed.
    pub fn generate(seed: u64, index: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(mix_seed(0x5EC0_0000 + index, seed));
        let stride = (rng.next_u32() % WORDS) | 1;
        let mult = (rng.next_u32() % 0x7FFF) | 1;
        let acc0 = rng.next_u32() % 0x8000;
        let words: Vec<u32> = (0..WORDS).map(|_| rng.next_u32()).collect();
        let source = format!(
            "    lui  r1, 2
    addi r3, r0, {WORDS}
    addi r4, r0, {mask}
    addi r5, r0, {stride}
    addi r6, r0, {mult}
    addi r7, r0, {acc0}
    addi r8, r0, 0
    addi r9, r0, {ROUNDS}
round:
    addi r2, r0, 0
inner:
    mul  r10, r2, r5
    add  r10, r10, r8
    and  r10, r10, r4
    add  r10, r10, r10
    add  r10, r10, r10
    add  r10, r10, r1
    add  r11, r2, r2
    add  r11, r11, r11
    add  r11, r11, r1
    lw   r12, 0(r11)
    lw   r13, 0(r10)
    mul  r14, r12, r6
    add  r14, r14, r13
    xor  r14, r14, r7
    sw   r14, 0(r10)
    add  r7, r7, r14
    addi r2, r2, 1
    bne  r2, r3, inner
    out  r7
    addi r8, r8, 1
    bne  r8, r9, round
    halt
",
            mask = WORDS - 1
        );
        let program = assemble(&source).expect("the generated program assembles");
        Self {
            index,
            name: format!("prog{index}"),
            program,
            data: words.iter().flat_map(|w| w.to_le_bytes()).collect(),
            expected: model(words, stride, mult, acc0),
        }
    }
}

/// The program's semantics in plain Rust.
fn model(mut a: Vec<u32>, stride: u32, mult: u32, acc0: u32) -> Vec<u32> {
    let mut acc = acc0;
    let mut out = Vec::new();
    for r in 0..ROUNDS {
        for i in 0..WORDS {
            let j = (i.wrapping_mul(stride).wrapping_add(r) & (WORDS - 1)) as usize;
            let v = (a[i as usize].wrapping_mul(mult).wrapping_add(a[j])) ^ acc;
            a[j] = v;
            acc = acc.wrapping_add(v);
        }
        out.push(acc);
    }
    out
}

/// The generated programs at one workload seed.
pub struct SecureVm {
    seed: u64,
    programs: Vec<GenProgram>,
}

impl SecureVm {
    /// Generates the programs from `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            programs: (0..PROGRAMS)
                .map(|i| GenProgram::generate(seed, i))
                .collect(),
        }
    }

    /// Generates the processor identity, then packages, loads and runs
    /// every program once. The identity's RNG seed is a constant: the
    /// RSA prime search takes a different time for every seed, so a
    /// seeded key would make `setup_s` depend on the key drawn rather
    /// than on the code.
    pub fn run_rep(&self, pool: &SweepPool, traced: bool) -> Rep {
        let started = Instant::now();
        let mut keygen = Duration::ZERO;
        let cpu = timed(&mut keygen, || {
            let mut rng = StdRng::seed_from_u64(PROCESSOR_SEED);
            ProcessorIdentity::generate(0xCAFE, &mut rng)
        });
        let (mut rep, mut outs) = sweep_rep(pool, &self.programs, started, keygen, |p| {
            self.run_program(p, &cpu, traced)
        });
        if traced {
            rep.layers.insert("vendor.keygen_s", keygen.as_secs_f64());
            crate::finish_traced(&mut rep, &mut outs);
            rep.spans
                .push(Span::new("processor", "vendor.keygen", 1, keygen));
        }
        rep
    }

    fn run_program(&self, p: &GenProgram, cpu: &ProcessorIdentity, traced: bool) -> OpOutcome {
        let mut rng = StdRng::seed_from_u64(mix_seed(0x9AC0_0000 + p.index, self.seed));
        let mut t_package = Duration::ZERO;
        let package = timed(&mut t_package, || {
            Vendor::paper_default().package(
                &p.name,
                &[
                    (CODE_BASE, SegmentKind::Code, p.program.encode()),
                    (DATA_BASE, SegmentKind::Data, p.data.clone()),
                ],
                CODE_BASE,
                cpu.public_key(),
                &mut rng,
            )
        });
        let mut t_load = Duration::ZERO;
        let loaded = package
            .map_err(|e| format!("package: {e}"))
            .and_then(|package| {
                timed(&mut t_load, || {
                    SecureLoader::new(IntegrityMode::Mac).load(&package, cpu)
                })
                .map_err(|e| format!("load: {e}"))
            });
        let loaded = match loaded {
            Ok(loaded) => loaded,
            Err(e) => {
                return OpOutcome {
                    result: record::error("secure-vm", &p.name, &e),
                    failed: true,
                    setup: t_package + t_load,
                    ..OpOutcome::default()
                }
            }
        };
        let mut vm = Vm::new(loaded.memory, loaded.entry);
        let mut t_run = Duration::ZERO;
        let ran = timed(&mut t_run, || vm.run(MAX_STEPS));
        let mut outcome = OpOutcome {
            result: record::vm("secure-vm", &p.name, vm.steps(), vm.output()),
            failed: ran.is_err() || vm.output() != p.expected,
            setup: t_package + t_load,
            run: t_run,
            sim_ops: vm.steps(),
            ..OpOutcome::default()
        };
        if traced {
            let (t_read, t_write) = match direct_line_calls(&mut vm) {
                Ok(times) => times,
                Err(e) => {
                    outcome.result = record::error("secure-vm", &p.name, &e);
                    outcome.failed = true;
                    return outcome;
                }
            };
            let calls = DIRECT_LINES * DIRECT_CALLS;
            let l = &mut outcome.layers;
            l.insert("vendor.package_s", t_package.as_secs_f64());
            l.insert("vendor.load_s", t_load.as_secs_f64());
            l.insert("vm.run_s", t_run.as_secs_f64());
            l.insert("vm.steps", vm.steps() as f64);
            l.insert("secure_mem.read_s", t_read.as_secs_f64());
            l.insert("secure_mem.reads", calls as f64);
            l.insert("secure_mem.write_s", t_write.as_secs_f64());
            l.insert("secure_mem.writes", calls as f64);
            outcome.spans = vec![
                Span::new(&p.name, "vendor.package", 1, t_package),
                Span::new(&p.name, "vendor.load", 1, t_load),
                Span::new(&p.name, "vm", vm.steps(), t_run),
                Span::new(&p.name, "secure_mem.read_line", calls, t_read),
                Span::new(&p.name, "secure_mem.write_line", calls, t_write),
            ];
        }
        outcome
    }
}

/// Times direct `read_line` and `write_line` calls on the program's
/// data lines after it ran (the writes store back what was read).
fn direct_line_calls(vm: &mut Vm) -> Result<(Duration, Duration), String> {
    let mem = vm.memory_mut();
    let line = mem.line_bytes() as u64;
    let (mut t_read, mut t_write) = (Duration::ZERO, Duration::ZERO);
    for l in 0..DIRECT_LINES {
        let addr = DATA_BASE + l * line;
        for _ in 0..DIRECT_CALLS {
            let plain = timed(&mut t_read, || mem.read_line(addr))
                .map_err(|e| format!("read_line {addr:#x}: {e}"))?;
            timed(&mut t_write, || mem.write_line(addr, &plain))
                .map_err(|e| format!("write_line {addr:#x}: {e}"))?;
        }
    }
    Ok((t_read, t_write))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_programs_run_to_their_model_output() {
        let vm = SecureVm::new(5);
        let rep = vm.run_rep(&SweepPool::serial(), true);
        assert_eq!(rep.results.len(), PROGRAMS as usize);
        assert!(rep.op_failed.iter().all(|f| !f), "{:?}", rep.results);
        for (p, result) in vm.programs.iter().zip(&rep.results) {
            assert_eq!(p.expected.len(), ROUNDS as usize);
            assert!(
                result.contains(&format!("\"out\":[{},{}]", p.expected[0], p.expected[1])),
                "{result}"
            );
        }
        assert!(rep.layers["secure_mem.read_line_us"] > 0.0);
        assert!(rep.layers["vm.ns_per_step"] > 0.0);
    }

    #[test]
    fn seeds_change_the_programs() {
        let a = GenProgram::generate(0, 0);
        let b = GenProgram::generate(1, 0);
        assert_ne!(a.data, b.data);
        assert_ne!(a.expected, b.expected);
    }
}
