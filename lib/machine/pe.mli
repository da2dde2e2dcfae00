(** One processing element: clock, cache, prefetch queue, annex, counters. *)

type t = {
  id : int;
  mutable clock : int;
  cache : Cache.t;
  queue : Prefetch_queue.t;
  annex : Dtb_annex.t;
  stats : Stats.t;
}

val create : Config.t -> int -> t

(** Advance the clock by a (non-negative) number of cycles. *)
val advance : t -> int -> unit
