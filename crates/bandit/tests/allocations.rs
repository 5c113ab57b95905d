//! A UCB-ALP pick allocates nothing: after a warm-up, 1 000 `select`/
//! `observe` rounds on the paper's incentive problem (4 temporal contexts,
//! 7 incentive levels of 1–20 cents, uniform contexts) make no heap
//! allocation, counted per thread by a wrapping global allocator. Two
//! budgets: a rich one, where the unconstrained greedy plan always fits,
//! and a tight one, where the LP binds every round and the pick mixes the
//! feasible plan with the boundary plan.

use crowdlearn_bandit::{BanditConfig, CostedBandit, UcbAlp};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A thread being torn down has no counter left; nothing to count then.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: each method passes its arguments unchanged to the system
// allocator, so the guarantees its caller gives are exactly the ones
// `System` requires, and it returns what `System` returns. Counting touches
// only a thread-local `Cell` that has no destructor and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const COSTS: [f64; 7] = [1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 20.0];
const WARMUP: u64 = 100;
const ROUNDS: u64 = 1_000;

/// Payoff of incentive `action` in context `ctx`: a dearer incentive
/// answers faster, more so in the later contexts.
fn payoff(ctx: usize, action: usize) -> f64 {
    0.2 + 0.1 * action as f64 * (ctx + 1) as f64 / 4.0
}

/// One round: a context in turn, a pick, its payoff.
fn round(bandit: &mut UcbAlp, r: u64) -> (usize, usize) {
    let ctx = (r % 4) as usize;
    let action = bandit.select(ctx).expect("the budget lasts the horizon");
    bandit.observe(ctx, action, payoff(ctx, action));
    (ctx, action)
}

/// Runs the warm-up and then the counted rounds at `per_round` cents of
/// budget per round; returns the counted rounds' allocations, their picks,
/// their spend and the budget left when they began.
fn probe(per_round: f64) -> (u64, Vec<(usize, usize)>, f64, f64) {
    let horizon = WARMUP + ROUNDS;
    let config = BanditConfig::new(4, COSTS.to_vec(), per_round * horizon as f64, horizon)
        .with_context_distribution(vec![0.25; 4]);
    let mut bandit = UcbAlp::new(config, 0x1CE);
    for r in 0..WARMUP {
        round(&mut bandit, r);
    }
    let left = bandit.remaining_budget();
    let mut picks = Vec::with_capacity(ROUNDS as usize);
    let before = ALLOCATIONS.with(Cell::get);
    for r in WARMUP..WARMUP + ROUNDS {
        let pick = round(&mut bandit, r);
        picks.push(pick);
    }
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    let spend = picks.iter().map(|&(_, a)| COSTS[a]).sum();
    (allocations, picks, spend, left)
}

#[test]
fn a_rich_budget_pick_allocates_nothing() {
    let (allocations, picks, _, _) = probe(40.0);
    assert_eq!(allocations, 0);
    // The unconstrained plan: the dearest incentive, everywhere.
    let dearest = picks.iter().filter(|&&(_, a)| a == COSTS.len() - 1).count();
    assert!(dearest > 900, "{dearest} of {ROUNDS} picks at 20 cents");
}

#[test]
fn a_tight_budget_pick_allocates_nothing() {
    let (allocations, picks, spend, left) = probe(5.0);
    assert_eq!(allocations, 0);
    // The LP binds: the rounds spend what the warm-up left them, and some
    // context alternates between two plans.
    assert!(spend > 0.95 * left, "spent {spend} of {left}");
    let mixed = (0..4).any(|ctx| {
        let mut actions = picks.iter().filter(|&&(c, _)| c == ctx).map(|&(_, a)| a);
        let first = actions.next();
        actions.any(|a| Some(a) != first)
    });
    assert!(mixed, "no context mixed two plans");
}
