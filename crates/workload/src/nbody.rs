//! The Barnes-Hut N-body application of §5.3.
//!
//! "The application we measured was an O(N log N) solution to the N-body
//! problem [Barnes & Hut 86]. The algorithm constructs a tree representing
//! the center of mass of each portion of space and then traverses portions
//! of the tree to compute the force on each body."
//!
//! This module implements the *real* algorithm — a 2-D Barnes-Hut
//! quadtree with the θ opening criterion — and maps it onto the simulated
//! machine: each body's force calculation costs
//! `interactions × interaction_cost` of virtual compute, and the data it
//! touches (its own body block and the tree-node blocks its traversal
//! visits) goes through the shared application-managed [`BufCache`], whose
//! misses block in the kernel for 50 ms, exactly as in the paper. Because
//! the traversals are real, per-body work variance, the skewed popularity
//! of upper tree levels, and the cache working set all emerge from the
//! physics rather than from synthetic distributions.
//!
//! The parallel version uses a worker pool and a task queue; every cache
//! access is protected by the application's cache lock — the frequent,
//! short critical section whose cost under kernel threads ("if a thread
//! tries to acquire a busy lock, the thread will block in the kernel")
//! produces the paper's Figure 1 flattening for Topaz threads.

use crate::bufcache::{BufCache, MISS_PENALTY};
use sa_machine::ids::{BlockId, LockId, ThreadRef};
use sa_machine::program::{FnBody, Op, OpResult, ThreadBody};
use sa_sim::SimDuration;
use std::cell::RefCell;
use std::ops::Range;
use std::rc::Rc;

// ---------------------------------------------------------------------
// Real Barnes-Hut physics
// ---------------------------------------------------------------------

/// One body.
#[derive(Debug, Clone, Copy)]
pub struct Body {
    /// Position.
    pub x: f64,
    /// Position.
    pub y: f64,
    /// Velocity.
    pub vx: f64,
    /// Velocity.
    pub vy: f64,
    /// Mass.
    pub m: f64,
}

/// A quadtree node (either internal with four children or a leaf holding
/// one body).
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Center of this square region.
    cx: f64,
    cy: f64,
    /// Half the side length.
    half: f64,
    /// Total mass below.
    mass: f64,
    /// Center of mass.
    mx: f64,
    my: f64,
    /// Child node indices (-1 = none); leaves have none.
    children: [i32; 4],
    /// Body index if this is a leaf holding exactly one body.
    body: i32,
    /// Bodies below this node.
    count: u32,
}

impl Node {
    fn empty(cx: f64, cy: f64, half: f64) -> Self {
        Node {
            cx,
            cy,
            half,
            mass: 0.0,
            mx: 0.0,
            my: 0.0,
            children: [-1; 4],
            body: -1,
            count: 0,
        }
    }

    fn quadrant_of(&self, x: f64, y: f64) -> usize {
        let east = x >= self.cx;
        let north = y >= self.cy;
        match (north, east) {
            (true, true) => 0,
            (true, false) => 1,
            (false, false) => 2,
            (false, true) => 3,
        }
    }

    fn child_center(&self, q: usize) -> (f64, f64) {
        let h = self.half / 2.0;
        match q {
            0 => (self.cx + h, self.cy + h),
            1 => (self.cx - h, self.cy + h),
            2 => (self.cx - h, self.cy - h),
            _ => (self.cx + h, self.cy - h),
        }
    }
}

/// A Barnes-Hut simulation: bodies plus the quadtree of the current step.
#[derive(Debug)]
pub struct BarnesHut {
    /// The bodies.
    pub bodies: Vec<Body>,
    /// Opening criterion: a node is treated as a point mass when
    /// `size / distance < theta`.
    pub theta: f64,
    nodes: Vec<Node>,
    root: usize,
}

/// Result of one body's force traversal.
#[derive(Debug, Clone)]
pub struct ForceResult {
    /// Net force components.
    pub fx: f64,
    /// Net force components.
    pub fy: f64,
    /// Number of body-node interactions evaluated (drives compute cost).
    pub interactions: u32,
    /// Indices of tree nodes visited (drives cache accesses).
    pub visited: Vec<u32>,
}

impl BarnesHut {
    /// Creates a deterministic random disk of `n` bodies.
    pub fn new_disk(n: usize, theta: f64, seed: u64) -> Self {
        let mut rng = sa_sim::SimRng::new(seed);
        let mut bodies = Vec::with_capacity(n);
        for _ in 0..n {
            // Uniform disk of radius 1 with small tangential velocities.
            let r = rng.unit().sqrt();
            let a = rng.unit() * std::f64::consts::TAU;
            let (x, y) = (r * a.cos(), r * a.sin());
            bodies.push(Body {
                x,
                y,
                vx: -y * 0.1,
                vy: x * 0.1,
                m: 1.0 / n as f64,
            });
        }
        let mut bh = BarnesHut {
            bodies,
            theta,
            nodes: Vec::new(),
            root: 0,
        };
        bh.build();
        bh
    }

    /// (Re)builds the quadtree over the current body positions.
    pub fn build(&mut self) {
        self.nodes.clear();
        // Bounding square.
        let mut maxc = 1e-9_f64;
        for b in &self.bodies {
            maxc = maxc.max(b.x.abs()).max(b.y.abs());
        }
        self.nodes.push(Node::empty(0.0, 0.0, maxc * 1.01));
        self.root = 0;
        for i in 0..self.bodies.len() {
            self.insert(self.root, i as i32);
        }
        self.summarize(self.root);
    }

    fn insert(&mut self, node: usize, body: i32) {
        let b = self.bodies[body as usize];
        if self.nodes[node].count == 0 {
            self.nodes[node].body = body;
            self.nodes[node].count = 1;
            return;
        }
        // Split a leaf by pushing its resident body down first.
        if self.nodes[node].count == 1 {
            let resident = self.nodes[node].body;
            self.nodes[node].body = -1;
            if resident >= 0 {
                self.push_down(node, resident);
            }
        }
        self.nodes[node].count += 1;
        self.push_down(node, body);
        let _ = b;
    }

    fn push_down(&mut self, node: usize, body: i32) {
        let b = self.bodies[body as usize];
        let q = self.nodes[node].quadrant_of(b.x, b.y);
        if self.nodes[node].children[q] < 0 {
            let (cx, cy) = self.nodes[node].child_center(q);
            let half = self.nodes[node].half / 2.0;
            // Degenerate coincident bodies: stop splitting below a floor.
            if half < 1e-12 {
                // Absorb into this node as an aggregated leaf.
                self.nodes[node].body = body;
                return;
            }
            let idx = self.nodes.len() as i32;
            self.nodes.push(Node::empty(cx, cy, half));
            self.nodes[node].children[q] = idx;
        }
        let child = self.nodes[node].children[q] as usize;
        self.insert(child, body);
    }

    /// Computes mass and center-of-mass bottom-up.
    fn summarize(&mut self, node: usize) {
        let children = self.nodes[node].children;
        let mut mass = 0.0;
        let mut mx = 0.0;
        let mut my = 0.0;
        if self.nodes[node].count == 1 && self.nodes[node].body >= 0 {
            let b = self.bodies[self.nodes[node].body as usize];
            mass = b.m;
            mx = b.x;
            my = b.y;
        } else {
            for c in children {
                if c >= 0 {
                    self.summarize(c as usize);
                    let cn = self.nodes[c as usize];
                    mass += cn.mass;
                    mx += cn.mx * cn.mass;
                    my += cn.my * cn.mass;
                }
            }
            if mass > 0.0 {
                mx /= mass;
                my /= mass;
            }
        }
        self.nodes[node].mass = mass;
        self.nodes[node].mx = mx;
        self.nodes[node].my = my;
    }

    /// Computes the force on body `i` with the θ criterion, recording the
    /// visited nodes.
    pub fn force_on(&self, i: usize) -> ForceResult {
        let mut out = ForceResult {
            fx: 0.0,
            fy: 0.0,
            interactions: 0,
            visited: Vec::with_capacity(64),
        };
        self.force_into(i, &mut out, &mut Vec::new());
        out
    }

    /// As [`BarnesHut::force_on`], into caller-owned buffers: `out` is
    /// overwritten (its `visited` list cleared, then refilled) and
    /// `stack` is the traversal's scratch. Reused across bodies, they
    /// make a traversal allocate nothing once they have grown to the
    /// largest one.
    pub fn force_into(&self, i: usize, out: &mut ForceResult, stack: &mut Vec<u32>) {
        let b = self.bodies[i];
        let (mut fx, mut fy, mut interactions) = (0.0, 0.0, 0);
        out.visited.clear();
        stack.clear();
        stack.push(self.root as u32);
        const EPS2: f64 = 1e-4;
        while let Some(n) = stack.pop() {
            let node = &self.nodes[n as usize];
            out.visited.push(n);
            if node.count == 0 || node.mass <= 0.0 {
                continue;
            }
            let dx = node.mx - b.x;
            let dy = node.my - b.y;
            let d2 = dx * dx + dy * dy + EPS2;
            let d = d2.sqrt();
            let is_leaf = node.count == 1;
            if is_leaf || (node.half * 2.0) / d < self.theta {
                if is_leaf && node.body == i as i32 {
                    continue; // self-interaction
                }
                let f = node.mass * b.m / (d2 * d);
                fx += f * dx;
                fy += f * dy;
                interactions += 1;
            } else {
                for c in node.children {
                    if c >= 0 {
                        stack.push(c as u32);
                    }
                }
            }
        }
        out.fx = fx;
        out.fy = fy;
        out.interactions = interactions;
    }

    /// Advances all bodies with the given forces (leapfrog-ish Euler).
    pub fn advance(&mut self, forces: &[(f64, f64)], dt: f64) {
        for (b, &(fx, fy)) in self.bodies.iter_mut().zip(forces) {
            b.vx += fx / b.m * dt;
            b.vy += fy / b.m * dt;
            b.x += b.vx * dt;
            b.y += b.vy * dt;
        }
    }

    /// Number of tree nodes in the current tree.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

// ---------------------------------------------------------------------
// Mapping onto the simulated machine
// ---------------------------------------------------------------------

/// Configuration of the N-body workload.
#[derive(Debug, Clone)]
pub struct NBodyConfig {
    /// Number of bodies.
    pub bodies: usize,
    /// Simulation timesteps.
    pub steps: usize,
    /// Opening criterion.
    pub theta: f64,
    /// Bodies per forked thread (the paper's app creates threads per unit
    /// of work; smaller chunks mean more thread-management operations).
    pub chunk: usize,
    /// Virtual compute per body-node interaction.
    pub interaction_cost: SimDuration,
    /// Virtual compute per tree-build insertion (charged to the main
    /// thread while it rebuilds the tree each step).
    pub build_cost_per_body: SimDuration,
    /// Cost of a buffer-cache hit (check + copy).
    pub hit_cost: SimDuration,
    /// Bodies stored per cache block.
    pub bodies_per_block: usize,
    /// Tree nodes stored per cache block. The whole tree is small and its
    /// upper levels are touched by every traversal, so node blocks are the
    /// hot working set; body blocks are the bulk data.
    pub nodes_per_block: usize,
    /// One cache access is made per this many visited tree nodes (the
    /// traversal reads node records in groups); duplicates are *not*
    /// collapsed — the cache lock is taken for every access, which is the
    /// frequent short critical section of §5.3.
    pub nodes_per_access: usize,
    /// Fine-grained data blocks per disk-transfer unit: the buffer cache
    /// stages whole transfer units (a disk read is a big page), while the
    /// cache lock is taken per object access. Decouples lock traffic from
    /// I/O volume.
    pub io_group: usize,
    /// Buffer-cache size as a fraction of the dataset (Figure 2's x-axis).
    pub memory_fraction: f64,
    /// Start with the cache warm (the paper's measured runs begin after
    /// the data is loaded; at 100% memory there is then no I/O at all).
    pub prewarm: bool,
    /// RNG seed for the initial conditions.
    pub seed: u64,
}

impl Default for NBodyConfig {
    fn default() -> Self {
        NBodyConfig {
            bodies: 600,
            steps: 3,
            theta: 0.7,
            chunk: 1,
            interaction_cost: SimDuration::from_micros(60),
            build_cost_per_body: SimDuration::from_micros(40),
            hit_cost: SimDuration::from_micros(16),
            bodies_per_block: 4,
            nodes_per_block: 64,
            nodes_per_access: 2,
            io_group: 1,
            memory_fraction: 1.0,
            prewarm: true,
            seed: 42,
        }
    }
}

impl NBodyConfig {
    /// Total dataset size in fine-grained data blocks (bodies + a
    /// tree-size estimate).
    pub fn dataset_blocks(&self) -> usize {
        let body_blocks = self.bodies.div_ceil(self.bodies_per_block);
        // A quadtree over n bodies has ~2n nodes in practice.
        let node_blocks = (2 * self.bodies).div_ceil(self.nodes_per_block);
        body_blocks + node_blocks
    }

    /// Dataset size in disk-transfer units (what the buffer cache holds).
    pub fn dataset_units(&self) -> usize {
        self.dataset_blocks().div_ceil(self.io_group.max(1))
    }

    /// The transfer unit a fine-grained block lives in.
    pub(crate) fn unit_of(&self, block: BlockId) -> BlockId {
        BlockId(block.0 / self.io_group.max(1) as u32)
    }
}

/// Block id of a body's data.
fn body_block(cfg: &NBodyConfig, body: usize) -> BlockId {
    BlockId((body / cfg.bodies_per_block) as u32)
}

/// Block id of a tree node's data (offset past the body blocks).
fn node_block(cfg: &NBodyConfig, node: u32) -> BlockId {
    let base = cfg.bodies.div_ceil(cfg.bodies_per_block) as u32;
    BlockId(base + node / cfg.nodes_per_block as u32)
}

/// The application's cache lock: held around every buffer-cache access,
/// the frequent short critical section of §5.3.
const CACHE_LOCK: LockId = LockId(1);

/// Shared state of an N-body application (one address space).
struct Shared {
    cfg: NBodyConfig,
    sim: BarnesHut,
    cache: BufCache,
    forces: Vec<(f64, f64)>,
    /// Per-step processing order of bodies (shuffled each step; work is
    /// handed out in data-independent order, as a real task scheduler
    /// would interleave it).
    order: Vec<usize>,
    /// Steps completed (observable by tests).
    steps_done: usize,
    /// The latest traversal's result and scratch stack, reused by every
    /// body's traversal.
    traversal: ForceResult,
    stack: Vec<u32>,
    /// Every block the step's traversals read, appended as bodies are
    /// picked; each body's fetches index its own stretch. Emptied when
    /// the tree is rebuilt, after the step's last fetch.
    blocks: Vec<BlockId>,
}

impl Shared {
    fn new(cfg: NBodyConfig) -> Self {
        let sim = BarnesHut::new_disk(cfg.bodies, cfg.theta, cfg.seed);
        let blocks = cfg.dataset_units();
        let mut cache = BufCache::with_fraction(blocks, cfg.memory_fraction);
        if cfg.prewarm {
            cache.prewarm();
        }
        let forces = vec![(0.0, 0.0); cfg.bodies];
        let order: Vec<usize> = (0..cfg.bodies).collect();
        Shared {
            cfg,
            sim,
            cache,
            forces,
            order,
            steps_done: 0,
            traversal: ForceResult {
                fx: 0.0,
                fy: 0.0,
                interactions: 0,
                visited: Vec::new(),
            },
            stack: Vec::new(),
            blocks: Vec::new(),
        }
    }

    /// Rebuilds the tree for a new step and empties the block list;
    /// returns the build's compute charge.
    fn build_step(&mut self) -> SimDuration {
        self.sim.build();
        self.blocks.clear();
        self.cfg
            .build_cost_per_body
            .saturating_mul(self.cfg.bodies as u64)
    }

    /// Runs body `i`'s force traversal, records its force, and appends
    /// the blocks it reads to the step's block list: the body's own
    /// block, then one per `nodes_per_access` visited nodes. Returns the
    /// appended stretch and the traversal's compute charge.
    fn traverse(&mut self, i: usize) -> (Range<usize>, SimDuration) {
        let Shared {
            cfg,
            sim,
            forces,
            traversal,
            stack,
            blocks,
            ..
        } = self;
        sim.force_into(i, traversal, stack);
        forces[i] = (traversal.fx, traversal.fy);
        let start = blocks.len();
        blocks.push(body_block(cfg, i));
        let stride = cfg.nodes_per_access.max(1);
        let nodes = traversal.visited.iter().step_by(stride);
        blocks.extend(nodes.map(|&n| node_block(cfg, n)));
        let compute = cfg
            .interaction_cost
            .saturating_mul(traversal.interactions.max(1) as u64);
        (start..blocks.len(), compute)
    }

    /// Looks up the step's `k`th block in the buffer cache; true on a hit.
    fn access(&mut self, k: usize) -> bool {
        let unit = self.cfg.unit_of(self.blocks[k]);
        self.cache.access(unit)
    }

    /// Applies the step's forces and counts the step. Returns the
    /// update's compute charge and whether that was the last step.
    fn advance_step(&mut self) -> (SimDuration, bool) {
        self.sim.advance(&self.forces, 0.05);
        self.steps_done += 1;
        let d = self
            .cfg
            .hit_cost
            .saturating_mul(self.cfg.bodies as u64 / 4 + 1);
        (d, self.steps_done >= self.cfg.steps)
    }

    /// Reshuffles the per-step body order (deterministic in seed + step).
    fn shuffle_order(&mut self) {
        let mut state = self
            .cfg
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(self.steps_done as u64 + 1);
        let n = self.order.len();
        for i in (1..n).rev() {
            // xorshift64* for a deterministic Fisher-Yates.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let j = (state.wrapping_mul(0x2545_f491_4f6c_dd1d) % (i as u64 + 1)) as usize;
            self.order.swap(i, j);
        }
    }
}

/// Handle for inspecting the application after a run.
#[derive(Clone)]
pub struct NBodyHandle {
    shared: Rc<RefCell<Shared>>,
}

impl NBodyHandle {
    /// Buffer-cache misses observed.
    pub fn cache_misses(&self) -> u64 {
        self.shared.borrow().cache.misses()
    }

    /// Steps completed.
    pub fn steps_done(&self) -> usize {
        self.shared.borrow().steps_done
    }
}

/// Builds the parallel N-body application. Returns the main thread body
/// and an inspection handle.
///
/// Thread structure per step (the paper's model of expressing the
/// program's parallelism through the thread system): the main thread
/// rebuilds the tree, forks one thread per `chunk` bodies, and joins them
/// all (the barrier). Each chunk thread reads its bodies' data and the
/// tree nodes its traversals visit through the shared buffer cache — the
/// cache lock is held around every access, and misses block in the kernel
/// for 50 ms — then charges the real interaction count as compute.
pub fn nbody_parallel(cfg: NBodyConfig) -> (Box<dyn ThreadBody>, NBodyHandle) {
    let shared = Rc::new(RefCell::new(Shared::new(cfg.clone())));
    let handle = NBodyHandle {
        shared: Rc::clone(&shared),
    };
    let main = build_main(shared);
    (main, handle)
}

/// Per-chunk-thread execution state.
enum ChunkPhase {
    /// Pick the next body (or exit at the end of the range).
    NextBody,
    /// Fetch the next block of the current body.
    Fetch,
    /// Holding the cache lock: look the block up.
    Locked,
    /// Release the lock, then continue (or pay the miss).
    Unlock { hit: bool },
    /// Released the lock after a miss; pay the I/O.
    MissIo,
    /// All blocks resident: charge the traversal compute.
    Compute,
}

fn chunk_worker(shared: Rc<RefCell<Shared>>, start: usize, end: usize) -> Box<dyn ThreadBody> {
    let mut phase = ChunkPhase::NextBody;
    let mut body_idx = start;
    let mut fetch = 0..0;
    let mut compute = SimDuration::ZERO;
    let body = FnBody::new("nbody-chunk", move |_env| {
        loop {
            match phase {
                ChunkPhase::NextBody => {
                    if body_idx >= end {
                        return Op::Exit;
                    }
                    // Run the real traversal for this body (positions index
                    // the per-step shuffled order).
                    let mut sh = shared.borrow_mut();
                    let i = sh.order[body_idx];
                    (fetch, compute) = sh.traverse(i);
                    phase = ChunkPhase::Fetch;
                }
                ChunkPhase::Fetch => {
                    if fetch.is_empty() {
                        phase = ChunkPhase::Compute;
                        continue;
                    }
                    // Take the cache lock for the access (§5.3's frequent
                    // short application critical section).
                    phase = ChunkPhase::Locked;
                    return Op::Acquire(CACHE_LOCK);
                }
                ChunkPhase::Locked => {
                    let k = fetch
                        .next()
                        .expect("Locked entered without a pending fetch");
                    let mut sh = shared.borrow_mut();
                    let hit = sh.access(k);
                    let hit_cost = sh.cfg.hit_cost;
                    drop(sh);
                    phase = ChunkPhase::Unlock { hit };
                    // The in-lock work: lookup + (on hit) the copy.
                    return Op::Compute(hit_cost);
                }
                ChunkPhase::Unlock { hit } => {
                    phase = if hit {
                        ChunkPhase::Fetch
                    } else {
                        ChunkPhase::MissIo
                    };
                    return Op::Release(CACHE_LOCK);
                }
                ChunkPhase::MissIo => {
                    phase = ChunkPhase::Fetch;
                    return Op::Io(MISS_PENALTY);
                }
                ChunkPhase::Compute => {
                    body_idx += 1;
                    phase = ChunkPhase::NextBody;
                    return Op::Compute(compute);
                }
            }
        }
    });
    Box::new(body)
}

fn build_main(shared: Rc<RefCell<Shared>>) -> Box<dyn ThreadBody> {
    enum MainPhase {
        BuildTree,
        ForkChunks { next: usize },
        JoinChunks { next: usize },
        Advance,
        Exit,
    }
    let mut chunks: Vec<ThreadRef> = Vec::new();
    let mut phase = MainPhase::BuildTree;
    let body = FnBody::new("nbody-main", move |env| {
        if let OpResult::Forked(w) = env.last {
            chunks.push(w);
        }
        loop {
            match &mut phase {
                MainPhase::BuildTree => {
                    let mut sh = shared.borrow_mut();
                    let d = sh.build_step();
                    sh.shuffle_order();
                    drop(sh);
                    chunks.clear();
                    phase = MainPhase::ForkChunks { next: 0 };
                    return Op::Compute(d);
                }
                MainPhase::ForkChunks { next } => {
                    let (bodies, chunk) = {
                        let sh = shared.borrow();
                        (sh.cfg.bodies, sh.cfg.chunk.max(1))
                    };
                    if *next >= bodies {
                        phase = MainPhase::JoinChunks { next: 0 };
                        continue;
                    }
                    let start = *next;
                    let end = (start + chunk).min(bodies);
                    *next = end;
                    return Op::Fork(chunk_worker(Rc::clone(&shared), start, end));
                }
                MainPhase::JoinChunks { next } => {
                    if *next < chunks.len() {
                        let w = chunks[*next];
                        *next += 1;
                        return Op::Join(w);
                    }
                    phase = MainPhase::Advance;
                }
                MainPhase::Advance => {
                    let (d, done) = shared.borrow_mut().advance_step();
                    phase = if done {
                        MainPhase::Exit
                    } else {
                        MainPhase::BuildTree
                    };
                    return Op::Compute(d);
                }
                MainPhase::Exit => return Op::Exit,
            }
        }
    });
    Box::new(body)
}

/// Builds the sequential N-body baseline: the same physics and the same
/// buffer cache, executed by a single thread with **no** thread-management
/// operations (the paper's speedup denominator: "speedup is relative to a
/// sequential implementation of the algorithm").
pub fn nbody_sequential(cfg: NBodyConfig) -> (Box<dyn ThreadBody>, NBodyHandle) {
    let shared = Rc::new(RefCell::new(Shared::new(cfg)));
    let handle = NBodyHandle {
        shared: Rc::clone(&shared),
    };
    enum Phase {
        Build,
        Body {
            i: usize,
        },
        Fetch {
            i: usize,
            fetch: Range<usize>,
            miss_pending: bool,
            compute: SimDuration,
        },
        Advance,
        Exit,
    }
    let mut phase = Phase::Build;
    let body = FnBody::new("nbody-seq", move |_env| loop {
        match &mut phase {
            Phase::Build => {
                let d = shared.borrow_mut().build_step();
                phase = Phase::Body { i: 0 };
                return Op::Compute(d);
            }
            Phase::Body { i } => {
                let mut sh = shared.borrow_mut();
                if *i >= sh.cfg.bodies {
                    phase = Phase::Advance;
                    continue;
                }
                let (fetch, compute) = sh.traverse(*i);
                phase = Phase::Fetch {
                    i: *i + 1,
                    fetch,
                    miss_pending: false,
                    compute,
                };
            }
            Phase::Fetch {
                i,
                fetch,
                miss_pending,
                compute,
            } => {
                if *miss_pending {
                    *miss_pending = false;
                    return Op::Io(MISS_PENALTY);
                }
                if let Some(k) = fetch.next() {
                    let mut sh = shared.borrow_mut();
                    let hit = sh.access(k);
                    let hit_cost = sh.cfg.hit_cost;
                    drop(sh);
                    if !hit {
                        *miss_pending = true;
                    }
                    return Op::Compute(hit_cost);
                }
                let d = *compute;
                phase = Phase::Body { i: *i };
                return Op::Compute(d);
            }
            Phase::Advance => {
                let (d, done) = shared.borrow_mut().advance_step();
                phase = if done { Phase::Exit } else { Phase::Build };
                return Op::Compute(d);
            }
            Phase::Exit => return Op::Exit,
        }
    });
    (Box::new(body), handle)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_build_counts_bodies() {
        let bh = BarnesHut::new_disk(100, 0.7, 1);
        assert!(bh.node_count() >= 100, "nodes: {}", bh.node_count());
    }

    #[test]
    fn forces_are_finite_and_nonzero() {
        let bh = BarnesHut::new_disk(200, 0.7, 2);
        let mut total_interactions = 0u64;
        for i in 0..200 {
            let f = bh.force_on(i);
            assert!(f.fx.is_finite() && f.fy.is_finite());
            assert!(f.interactions > 0, "body {i} saw no interactions");
            assert!(!f.visited.is_empty());
            total_interactions += f.interactions as u64;
        }
        // θ = 0.7 must approximate: far fewer than N² interactions.
        assert!(total_interactions < 200 * 199);
        // …but more than N (it is not all-collapsed either).
        assert!(total_interactions > 200);
    }

    #[test]
    fn theta_zero_degenerates_to_direct_sum() {
        // θ → 0 forces opening every node: interactions ≈ N−1 leaves.
        let bh = BarnesHut::new_disk(50, 1e-9, 3);
        let f = bh.force_on(0);
        assert_eq!(f.interactions, 49);
    }

    #[test]
    fn larger_theta_means_fewer_interactions() {
        let fine = BarnesHut::new_disk(300, 0.3, 4);
        let coarse = BarnesHut::new_disk(300, 1.2, 4);
        let fi: u64 = (0..300).map(|i| fine.force_on(i).interactions as u64).sum();
        let ci: u64 = (0..300)
            .map(|i| coarse.force_on(i).interactions as u64)
            .sum();
        assert!(ci < fi, "coarse {ci} >= fine {fi}");
    }

    #[test]
    fn momentum_is_roughly_conserved_by_symmetric_forces() {
        let mut bh = BarnesHut::new_disk(100, 0.5, 5);
        let forces: Vec<(f64, f64)> = (0..100)
            .map(|i| {
                let f = bh.force_on(i);
                (f.fx, f.fy)
            })
            .collect();
        // Barnes-Hut approximation breaks exact symmetry, but the net
        // force should be small relative to the total force magnitude.
        let (nx, ny) = forces
            .iter()
            .fold((0.0, 0.0), |(ax, ay), &(fx, fy)| (ax + fx, ay + fy));
        let total: f64 = forces.iter().map(|&(fx, fy)| fx.hypot(fy)).sum();
        assert!(
            nx.hypot(ny) < 0.15 * total,
            "net {} vs total {}",
            nx.hypot(ny),
            total
        );
        bh.advance(&forces, 0.01);
        bh.build();
        assert!(bh.bodies.iter().all(|b| b.x.is_finite() && b.y.is_finite()));
    }

    #[test]
    fn dataset_blocks_scale_with_bodies() {
        let small = NBodyConfig {
            bodies: 100,
            ..NBodyConfig::default()
        };
        let big = NBodyConfig {
            bodies: 1000,
            ..NBodyConfig::default()
        };
        assert!(big.dataset_blocks() > small.dataset_blocks());
    }

    #[test]
    fn block_mapping_separates_bodies_and_nodes() {
        let cfg = NBodyConfig::default();
        let last_body = body_block(&cfg, cfg.bodies - 1);
        let first_node = node_block(&cfg, 0);
        assert!(first_node.0 > last_body.0);
    }
}
