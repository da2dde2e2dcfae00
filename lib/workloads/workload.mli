(** Workload type.

    A workload is a named IR program (with its problem-size parameters
    already bound). The four SPEC kernels of the paper's Section 5.3 live in
    their own modules; the registry over all of them is {!Suite}. *)

type t = {
  name : string;
  descr : string;
  program : Ccdp_ir.Program.t;
      (** not yet inlined; may contain procedures *)
}

val make : name:string -> descr:string -> Ccdp_ir.Program.t -> t
