(* Hardware-coherence bookkeeping shared by the snooping and directory
   modes: the M/E/S/I state encoding cache slots carry, and the directory's
   per-line presence/owner table.

   States are plain ints so the cache's per-slot state array stays flat;
   the ordering is meaningful: anything > shared holds the line with
   write permission pending ([exclusive] clean, [modified] dirty), so
   "some other PE owns this line" is a single comparison. *)

let invalid = 0
let shared = 1
let exclusive = 2
let modified = 3

module Dir = struct
  (* Per-line presence bitset + dirty-owner register, the full-map
     directory of Censier-Feautrier. Presence words pack 63 PEs each
     (OCaml's native int less the tag bit), so membership, insertion and
     removal are single loads on any realistic machine width; [owner] is
     the PE holding the line Modified (-1 = line clean everywhere). *)
  type t = {
    bwords : int;  (** presence words per line *)
    presence : int array;  (** n_lines * bwords, row-major *)
    owner : int array;  (** n_lines; -1 = no dirty owner *)
  }

  let create ~n_pes ~n_lines =
    if n_pes <= 0 || n_lines < 0 then invalid_arg "Coherence.Dir.create";
    let bwords = ((n_pes + 62) / 63) in
    {
      bwords;
      presence = Array.make (max 1 (n_lines * bwords)) 0;
      owner = Array.make (max 1 n_lines) (-1);
    }

  let add t ~line ~pe =
    let w = (line * t.bwords) + (pe / 63) in
    t.presence.(w) <- t.presence.(w) lor (1 lsl (pe mod 63))

  let remove t ~line ~pe =
    let w = (line * t.bwords) + (pe / 63) in
    t.presence.(w) <- t.presence.(w) land lnot (1 lsl (pe mod 63))

  (* The lowest sharer at or above [from], or -1: walking it upward gives
     the ascending PE order — the deterministic invalidation order both
     engines replay identically — without a closure. *)
  let next_sharer t ~line ~from =
    let base = line * t.bwords and found = ref (-1) and pe = ref from in
    while !found < 0 && !pe < t.bwords * 63 do
      let bits = t.presence.(base + (!pe / 63)) lsr (!pe mod 63) in
      if bits = 0 then pe := (!pe / 63 * 63) + 63
      else if bits land 1 <> 0 then found := !pe
      else incr pe
    done;
    !found

  let sharers t ~line =
    let rec from pe =
      match next_sharer t ~line ~from:pe with
      | -1 -> []
      | p -> p :: from (p + 1)
    in
    from 0

  let owner t ~line = t.owner.(line)
  let set_owner t ~line pe = t.owner.(line) <- pe
end
