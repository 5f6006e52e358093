"""The layer -> end-to-end map of the per-layer metrics.

Metric names, units and directions live in ``BENCHMARK.json`` only.
``LAYER_MAP`` records, for each per-layer metric listed there, which
end-to-end metric it should move and on which workload, where it should
not move, and what it counts; a later performance change names its claim
by these names.  ``run.py`` refuses to run when the two name sets differ.
"""

_EXACT = ("ops_per_s, op_p50_ms", "exact_variation", "nc_cumulants")
_LATTICE = ("ops_per_s, setup_s", "nc_cumulants", "float_operators")
_DENSE = ("ops_per_s, op_tail_ms, peak_rss_mb", "float_operators",
          "exact_variation")
_MARGIN = ("op_p50_ms, verified_op_ratio", "float_operators", None)
_CLI = ("ops_per_s, verified_op_ratio", "float_operators",
        "the other workloads")
_PROC = ("none: processes run only in the traced run", "float_operators",
         None)

# (name, (moves, on workload, no change on), meaning)
PER_LAYER = (
    ("algebra.self_s", _EXACT, "self time in algebra"),
    ("algebra.calls", _EXACT, "algebra calls"),
    ("fock.apply_self_s", _EXACT, "self time in FockOperator.apply"),
    ("fock.inner_self_s", _EXACT,
     "self time in FockSpace.inner / FockVector.inner"),
    ("fock.vec_nnz_out", _EXACT,
     "nonzeros of the vectors FockOperator.apply returns"),
    ("variation.self_s", _EXACT, "self time in variation"),
    ("ncpart.self_s", _LATTICE, "self time in ncpart"),
    ("ncpart.calls", _LATTICE, "ncpart calls"),
    ("ncpart.partitions_out", _LATTICE,
     "partitions returned by enumerate_nc, kreweras and relabel"),
    ("ncps.self_s", _LATTICE, "self time in ncps"),
    ("ncps.values_out", _LATTICE,
     "moments and cumulants returned by the ncps recursions"),
    ("fock.self_s", _DENSE, "self time in fock"),
    ("fock.matrix_self_s", _DENSE, "self time in FockOperator.matrix"),
    ("fock.norm_self_s", _DENSE, "self time in FockOperator.norm"),
    ("fock.dense_bytes", _DENSE,
     "largest dense matrix() result, computed as total_dim^2 x itemsize"),
    ("quantize.self_s", _DENSE, "self time in quantize"),
    ("quantize.tilde_dim_max", _DENSE,
     "largest dilation space L2(M) + H_T + L2(N)"),
    ("transforms.self_s", _MARGIN, "self time in transforms"),
    ("transforms.grid_points", _MARGIN,
     "density_on_grid points requested (0: no grid in the workload)"),
    ("transforms.grid_ok_ratio", _MARGIN,
     "grid points without a Newton failure (0: no grid)"),
    ("transforms.tol_use_max", _MARGIN,
     "largest transforms check error / its pinned tolerance"),
    ("quantize.tol_use_max", _MARGIN,
     "largest second-quantization error / its pinned 1e-8"),
    ("fock.bound_slack_min", _MARGIN,
     "smallest Haagerup bound minus ||I_n(x)|| (0: no norm checked)"),
    ("cli.proc_s", _PROC,
     "median wall time of one CLI request run as a process"),
    ("cli.in_process_s", _CLI,
     "median wall time of one CLI request through cli.run, untraced"),
    ("cli.spawn_floor_s", _PROC,
     "median wall time of a bare interpreter start"),
    ("cli.error_exit_ok_ratio", _CLI,
     "malformed requests ending with exit 2 and a JSON error"),
    ("cli.self_s", _CLI, "self time in cli, in process"),
    ("classify.self_s", _CLI, "self time in classify"),
    ("trace.overhead_ratio", ("none", "every workload", None),
     "traced ops_per_s / untraced ops_per_s in the same run"),
)

LAYER_MAP = {name: {"moves": moves, "on": on, "no_change_on": off,
                    "meaning": meaning}
             for name, (moves, on, off), meaning in PER_LAYER}
