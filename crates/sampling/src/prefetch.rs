//! The software prefetch hint of the staged step kernel.
//!
//! A walker step is a chain of dependent loads — CSR row bounds → the
//! RNG-chosen alias cell → the edge target — so the engine's hot loop
//! draws for walker *i + D*, hints the cells that draw chose, and only
//! then resolves walker *i* (ThunderRW-style step interleaving). The hint
//! is a pure performance annotation: it never faults, never touches
//! memory architecturally, and compiles to nothing on targets without a
//! known prefetch instruction, so every caller stays byte-identical with
//! or without it.
//!
//! `core::arch` only — no dependencies, no `unsafe` leaking to callers.

/// Hints that the cache line containing `p` will soon be read.
///
/// Accepts any pointer, including dangling or null — the instruction is
/// specified to never fault. No-op on targets without a stable prefetch
/// primitive.
#[inline(always)]
pub fn read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: PREFETCHT0 is a hint; it never faults regardless of `p`.
    unsafe {
        core::arch::x86_64::_mm_prefetch(p as *const i8, core::arch::x86_64::_MM_HINT_T0);
    }
    #[cfg(target_arch = "aarch64")]
    // SAFETY: PRFM PLDL1KEEP is a hint; it never faults regardless of `p`.
    unsafe {
        core::arch::asm!(
            "prfm pldl1keep, [{ptr}]",
            ptr = in(reg) p,
            options(nostack, preserves_flags, readonly)
        );
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    let _ = p;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_faults_on_hostile_pointers() {
        read(core::ptr::null::<u64>());
        read(usize::MAX as *const u64);
        read((&42u64) as *const u64);
    }
}
