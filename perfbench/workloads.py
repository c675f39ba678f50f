"""Workload definitions shared by the generator, the worker and the runner.

Every workload is a fixed amount of work.  The seed picks one relabelling
of the corpus carriers (a permutation of the labels per carrier size, which
is an automorphism of the whole corpus), the order in which morphisms are
visited, and for `session` the command sequence.  It never picks which
relabelling classes are checked: per-morphism costs in these suites vary
by two orders of magnitude, so a seeded subset would make the work, and
every end-to-end figure, depend on the seed.

This module imports nothing from tvcat, so the runner can read it.
"""

CLASSES = ("all", "representable", "right_adjoint")

# verify-paper's caps: the boolean family runs at the default presheaf cap,
# other builtins at 512 (cli._FAMILY_CAPS); saturation keeps its defaults.
BOOLEAN_CAP = 4096
CHAIN_CAP = 512

WORKLOADS = {
    "calculus": {
        "why": "quantale, monad, category and core layers: lax extension, "
               "Kleisli convolution and module scans; carries the known "
               "module-shortcuts FAIL",
        "corpora": [
            {"quantale": {"builtin": "boolean"}, "monad": "identity",
             "size": 3, "cap": BOOLEAN_CAP},
            {"quantale": {"builtin": "boolean"},
             "monad": "finite_ultrafilter", "size": 3, "cap": BOOLEAN_CAP},
        ],
        # every category up to 2 points plus one 3-point category per
        # relabelling class (5 of the 19); every 16th representative
        "cats": "up-to-2-points-plus-3-point-classes",
        "rep_stride": 16,
        "suites": "check_monad_laws(M, 3); check_enriched_calculus(M, cats, "
                  "reps); yoneda_lemma_check(C, cls, cap) for each class "
                  "and category",
    },
    "towers": {
        "why": "presheaf enumeration, comma factorisations and memory: awfs "
               "towers over the boolean quantale, with over-cap spaces",
        "corpora": [
            {"quantale": {"builtin": "boolean"}, "monad": "identity",
             "size": 3, "cap": BOOLEAN_CAP},
        ],
        "cats": "all",
        "rep_stride": 24,
        "suites": "check_awfs(f) and check_simplicity(f) per morphism in "
                  "check_awfs_corpus order; check_left_class(cats, reps); "
                  "check_presheaf_monad(all, cats, reps)",
    },
    "chains": {
        "why": "general hom-meet presheaf structure and class-membership "
               "scans over many-valued quantales; no boolean shortcut "
               "applies",
        "corpora": [
            {"quantale": {"builtin": "truncated_chain", "n": 2},
             "monad": "identity", "size": 2, "cap": CHAIN_CAP},
            {"quantale": {"builtin": "lukasiewicz_chain", "n": 2},
             "monad": "identity", "size": 2, "cap": CHAIN_CAP},
        ],
        # the empty and one-point categories plus the first 2-point
        # category in corpus order; every 36th representative
        "cats": "first-3",
        "rep_stride": 36,
        "suites": "check_saturated(cls, cats, reps) per class; "
                  "check_simplicity_corpus(reps, cls, cap) per class; "
                  "check_awfs_corpus(reps, all, cap); "
                  "check_presheaf_monad(all, cats, reps, cap)",
    },
    "session": {
        "why": "workspace and per-command path: one closed-loop client "
               "issuing factor, classify, lift, complete and presheaves "
               "through run_command, with caches kept across commands",
        "corpora": [
            {"quantale": {"builtin": "boolean"}, "monad": "identity",
             "size": 3},
            {"quantale": {"builtin": "lukasiewicz_chain", "n": 2},
             "monad": "identity", "size": 2, "cap": CHAIN_CAP},
        ],
        # inputs per corpus: functors (every Nth representative),
        # categories (every Nth category) and lifting problems; commands
        # on chain inputs pass verify-paper's chain cap as --max-space,
        # the others run at the CLI's default cap.  Chain functors come
        # from representatives with a carrier of at most one point: a cold
        # factor of a 2-point-to-2-point chain functor takes up to 25 s,
        # longer than a whole sample (chains covers those).
        "functor_stride": [22, 3],
        "functor_max_end": [3, 1],
        "cat_stride": [3, 3],
        "problems": [6, 0],
        "repeats": 16,
        "suites": "run_command for each command of the generated sequence",
    },
}
