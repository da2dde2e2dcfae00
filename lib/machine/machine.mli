(** The whole machine: a set of PEs plus barrier synchronization. *)

type t = { cfg : Config.t; pes : Pe.t array }

val create : Config.t -> t
val pe : t -> int -> Pe.t

(** Barrier: every clock jumps to the maximum plus the (log-tree) barrier
    cost; pending prefetches are drained and counted unused. *)
val barrier : t -> unit

(** Latest PE clock. *)
val time : t -> int

(** Machine-wide counter totals. *)
val total_stats : t -> Stats.t
