(** Allocation-free table from ints (cache-line numbers) to two int
    values, for the memory system's per-PE line sets: the lines filled
    since the last barrier, the staged vector-get lines (ready cycle and
    staging generation) and a vector get's per-issue dedup set.

    Open addressing with generation-stamped slots: {!clear} is O(1), so
    the barrier resets every table without touching its slots. Only
    {!replace} allocates, and only when the table doubles. *)

type t

(** An empty table sized for about [n] keys without growing. *)
val create : int -> t

val length : t -> int

(** Remove every key, in O(1). *)
val clear : t -> unit

(** The slot holding a key, or [-1] when it is absent. A slot is valid
    until the next {!replace}, {!remove} or {!clear}. *)
val find : t -> int -> int

val mem : t -> int -> bool

(** The first and second value at a slot returned by {!find}. *)
val v1 : t -> int -> int

val v2 : t -> int -> int

(** Bind a key to both values, adding it when absent. *)
val replace : t -> int -> v1:int -> v2:int -> unit

(** Unbind a key; absent keys are ignored. *)
val remove : t -> int -> unit
