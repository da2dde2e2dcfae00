(** Global word-address layout.

    Every PE's local memory is a contiguous window of the global address
    space ([pe * pe_span .. (pe+1) * pe_span)), mirroring the T3D's
    PE-number/local-offset physical addressing. Each array gets a
    line-aligned base inside the window; a distributed element lives in its
    owner's window, a replicated (or private) element in every window. *)

type t

(** [cache_lines] enables allocation coloring: the k-th array's base is
    padded up to cache-set position [(k mod 16) * cache_lines/16], so equal
    elements of different arrays never share a direct-mapped set (for up to
    16 arrays and columns up to [cache_lines/16] lines). Without it,
    equal-sized arrays land on cache-size-aligned bases and thrash — the
    pathology real SPEC codes avoid by padding their COMMON blocks. 0
    disables coloring. *)
val make :
  Ccdp_ir.Program.t -> n_pes:int -> line_words:int -> ?cache_lines:int -> unit -> t

val n_pes : t -> int
val pe_span : t -> int

(** Total words of the global space ([n_pes * pe_span]). *)
val total_words : t -> int

val layout : t -> string -> Ccdp_craft.Layout.t

(** Offset of an array's first word inside every PE's window. *)
val base : t -> string -> int

(** {1 Pre-resolved handles (hot path)}

    A handle captures one array's layout and base so the per-access path is
    pure arithmetic: no string hashing, no tuple or variant allocation. *)

type handle

val handle : t -> string -> handle

(** Address of an element as seen from [pe]: a distributed element lives in
    its owner's window, a replicated or private one in [pe]'s own. *)
val resolve_h : handle -> pe:int -> int array -> int

(** Target encoding recovered from an address produced by [resolve_h] on the
    same [pe]: [-1] when the access is to the PE's own window (a replicated
    or private element, or one [pe] owns), else the owning PE id. *)
val target_of : handle -> pe:int -> addr:int -> int

(** Addresses of an element in {e every} copy (one for distributed arrays,
    [n_pes] for replicated ones) — used by initialization. *)
val all_copies : t -> string -> int array -> int list

(** Owner-copy address (PE-0 copy for replicated arrays) — used to read
    results back. *)
val canonical : t -> string -> int array -> int
