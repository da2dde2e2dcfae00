(** DOALL race detector (CCDP-W003, and the lock and reduction errors
    CCDP-W009–W011).

    Judges every parallel epoch's loop with {!Ccdp_analysis.Parallelize}'s
    dependence test, the one the auto-parallelizer uses: ZIV/strong-SIV on
    uniformly generated affine subscript pairs and a Banerjee-style range
    test on the others and on any that use a variable of a loop nested in
    the DOALL, scalar privatization with per-iteration definiteness, and
    the live-out rule (a scalar the DOALL assigns must not be read after
    it before a definite write). A DOALL
    carrying a cross-iteration dependence, reading an unprivatizable
    scalar or leaking a private one is flagged as a race. Conflicting pairs
    are then judged by their locks: both sides under one lock is
    discharged, one side or two different locks is an error. Reductions
    must use an associative operator, one per variable, and no ordinary
    assignment. *)

val check : Ccdp_ir.Program.t -> Ccdp_ir.Epoch.t -> Diag.t list
