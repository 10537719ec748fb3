//! A distributed worker: one machine (optionally with a GPU) owning a
//! partition of the data and a local SCD engine.

use crate::local::LocalSolver;
use crate::partition::LocalPartition;
use scd_core::{Form, TimeBreakdown, WorkerScalars};
use scd_perf_model::{CpuProfile, LinkProfile};
use scd_sparse::dense;

/// What a worker sends the master after one local epoch.
#[derive(Debug, Clone)]
pub struct WorkerRound {
    /// Δw⁽ᵏ⁾ (primal) or Δw̄⁽ᵏ⁾ (dual): the worker's shared-vector update.
    pub delta_shared: Vec<f32>,
    /// The adaptive-aggregation scalars.
    pub scalars: WorkerScalars,
    /// Simulated time this worker spent in the round (compute + PCIe).
    pub breakdown: TimeBreakdown,
    /// Coordinate updates the round performed, over all local passes.
    pub updates: usize,
}

/// One worker node.
pub struct Worker {
    id: usize,
    partition: LocalPartition,
    solver: Box<dyn LocalSolver>,
    /// Master-consistent local weights (β⁽ᵗ⁻¹,ᵏ⁾ / α⁽ᵗ⁻¹,ᵏ⁾).
    weights: Vec<f32>,
    /// Δ weights of the round in flight, awaiting the master's γ.
    pending_delta: Vec<f32>,
    form: Form,
    /// Full local passes per communication round (≥ 1).
    local_epochs: usize,
    cpu: CpuProfile,
    pcie: LinkProfile,
    /// The latest round's result, its buffers reused round to round.
    round: WorkerRound,
    /// Scratch for the engine's post-round weights, reused round to round.
    new_weights: Vec<f32>,
    /// Scratch for the engine's post-round shared vector, ditto.
    new_shared: Vec<f32>,
}

impl Worker {
    /// Wrap a partition and a local engine into a worker.
    pub fn new(
        id: usize,
        partition: LocalPartition,
        solver: Box<dyn LocalSolver>,
        form: Form,
        cpu: CpuProfile,
        pcie: LinkProfile,
    ) -> Self {
        let coords = partition.problem.coords(form);
        Worker {
            id,
            partition,
            solver,
            weights: vec![0.0; coords],
            pending_delta: vec![0.0; coords],
            form,
            local_epochs: 1,
            cpu,
            pcie,
            round: WorkerRound {
                delta_shared: Vec::new(),
                scalars: WorkerScalars::default(),
                breakdown: TimeBreakdown::default(),
                updates: 0,
            },
            new_weights: Vec::new(),
            new_shared: Vec::new(),
        }
    }

    /// Run `h` full local passes between communications (§IV-A trade-off).
    pub fn with_local_epochs(mut self, h: usize) -> Self {
        assert!(h >= 1, "need at least one local pass");
        self.local_epochs = h;
        self
    }

    /// Worker index within the cluster.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Global coordinate ids this worker owns.
    pub fn global_ids(&self) -> &[usize] {
        &self.partition.global_ids
    }

    /// Master-consistent local weights.
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// Coordinates this worker owns.
    pub fn coords(&self) -> usize {
        self.weights.len()
    }

    /// The local engine's display name.
    pub fn solver_name(&self) -> String {
        self.solver.name()
    }

    /// Run one local epoch from the master's shared vector (Algorithm 3's
    /// per-worker body): load w⁽ᵗ⁻¹⁾, run a permuted pass over the local
    /// coordinates, and return Δw⁽ᵗ,ᵏ⁾ plus the adaptive-aggregation
    /// scalars. The Δβ⁽ᵗ,ᵏ⁾ stays here until [`Self::apply_gamma`].
    pub fn run_round(&mut self, global_shared: &[f32]) -> &WorkerRound {
        self.solver.load_shared(global_shared);
        let mut stats = self.solver.epoch(&self.partition.problem);
        for _ in 1..self.local_epochs {
            let extra = self.solver.epoch(&self.partition.problem);
            stats.updates += extra.updates;
            stats.breakdown.accumulate(&extra.breakdown);
        }
        // All of the round's vectors land in reused buffers: steady-state
        // rounds perform no heap allocation on this path.
        self.solver.weights_into(&mut self.new_weights);
        self.solver.shared_vector_into(&mut self.new_shared);

        dense::sub_into(&self.new_shared, global_shared, &mut self.round.delta_shared);
        dense::sub_into(&self.new_weights, &self.weights, &mut self.pending_delta);

        self.round.scalars = WorkerScalars {
            x_dot_dx: dense::dot(&self.weights, &self.pending_delta),
            dx_sq: dense::squared_norm(&self.pending_delta),
            dx_dot_y: match self.form {
                // ⟨Δα⁽ᵏ⁾, y⁽ᵏ⁾⟩ over the worker's own examples.
                Form::Dual => dense::dot(&self.pending_delta, self.partition.problem.labels()),
                Form::Primal => 0.0,
            },
        };

        let mut breakdown = stats.breakdown;
        // Forming Δw and Δβ plus the three scalar reductions on the host.
        breakdown.host += self
            .cpu
            .host_vector_op_seconds(2 * global_shared.len() + 3 * self.pending_delta.len());
        // GPU workers pay PCIe for the shared-vector round trip: the
        // download and upload legs are charged separately (they need not
        // carry the same bytes, and halving an odd total would silently
        // drop a byte).
        let (down_bytes, up_bytes) = self.solver.pcie_bytes_split();
        if down_bytes + up_bytes > 0 {
            breakdown.pcie +=
                self.pcie.transfer_seconds(down_bytes) + self.pcie.transfer_seconds(up_bytes);
        }
        self.round.breakdown = breakdown;
        self.round.updates = stats.updates;
        &self.round
    }

    /// The latest [`Self::run_round`] result (stale until the first round).
    pub fn round(&self) -> &WorkerRound {
        &self.round
    }

    /// Mutable access to the latest round — the driver uses this to apply
    /// fault-plan fates (delay multipliers) without cloning the round.
    pub fn round_mut(&mut self) -> &mut WorkerRound {
        &mut self.round
    }

    /// Apply the master's aggregation parameter to the pending local update
    /// (Algorithm 4's "β(t,k) = β(t−1,k) + γₜΔβ(t,k)") and re-sync the
    /// engine.
    pub fn apply_gamma(&mut self, gamma: f64) {
        dense::axpy(gamma as f32, &self.pending_delta, &mut self.weights);
        self.solver.load_weights(&self.weights);
    }

    /// Abandon the round in flight (the master timed out on it or its
    /// delivery was dropped): zero the pending Δβ and re-sync the engine
    /// to the last master-consistent weights, so the worker re-enters the
    /// next round from exactly the state the master assumes it holds.
    pub fn discard_round(&mut self) {
        self.pending_delta.iter_mut().for_each(|d| *d = 0.0);
        self.solver.load_weights(&self.weights);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{partition_problem, PartitionStrategy};
    use scd_core::{RidgeProblem, SequentialScd};
    use scd_datasets::webspam_like;

    fn full() -> RidgeProblem {
        RidgeProblem::from_labelled(&webspam_like(60, 40, 6, 7), 1e-2).unwrap()
    }

    fn make_worker(full: &RidgeProblem, k: usize, of: usize) -> Worker {
        let parts = partition_problem(full, Form::Primal, of, PartitionStrategy::Contiguous);
        let part = parts.into_iter().nth(k).unwrap();
        let solver = SequentialScd::primal(&part.problem, 42 + k as u64);
        Worker::new(
            k,
            part,
            Box::new(solver),
            Form::Primal,
            CpuProfile::xeon_e5_2640(),
            LinkProfile::pcie3_x16(),
        )
    }

    #[test]
    fn round_produces_consistent_delta() {
        let full = full();
        let mut w = make_worker(&full, 0, 2);
        let zeros = vec![0.0f32; full.n()];
        let round = w.run_round(&zeros).clone();
        // From β=0, w=0: the delta shared vector must equal A_k β_new.
        w.apply_gamma(1.0);
        let expected = w
            .partition
            .problem
            .csc()
            .matvec(&w.weights)
            .unwrap();
        for (a, b) in round.delta_shared.iter().zip(&expected) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
        assert!(round.scalars.dx_sq > 0.0);
        // x_dot_dx from β=0 is zero.
        assert_eq!(round.scalars.x_dot_dx, 0.0);
        assert!(round.breakdown.host > 0.0);
        assert_eq!(round.breakdown.pcie, 0.0, "CPU worker moves nothing over PCIe");
    }

    #[test]
    fn apply_gamma_scales_pending_update() {
        let full = full();
        let mut w = make_worker(&full, 1, 2);
        let zeros = vec![0.0f32; full.n()];
        w.run_round(&zeros);
        let pending = w.pending_delta.clone();
        w.apply_gamma(0.5);
        for (w_i, p_i) in w.weights().iter().zip(&pending) {
            assert!((w_i - 0.5 * p_i).abs() < 1e-6);
        }
        // Engine resynced to the scaled weights.
        assert_eq!(w.solver.weights(), w.weights);
    }

    #[test]
    fn worker_ids_and_coords() {
        let full = full();
        let w = make_worker(&full, 1, 4);
        assert_eq!(w.id(), 1);
        assert_eq!(w.coords(), 10);
        assert_eq!(w.global_ids().len(), 10);
        assert!(w.solver_name().contains("SCD"));
    }
}
