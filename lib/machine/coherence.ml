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
    n_pes : int;
    bwords : int;  (** presence words per line *)
    presence : int array;  (** n_lines * bwords, row-major *)
    owner : int array;  (** n_lines; -1 = no dirty owner *)
  }

  let create ~n_pes ~n_lines =
    if n_pes <= 0 || n_lines < 0 then invalid_arg "Coherence.Dir.create";
    let bwords = ((n_pes + 62) / 63) in
    {
      n_pes;
      bwords;
      presence = Array.make (max 1 (n_lines * bwords)) 0;
      owner = Array.make (max 1 n_lines) (-1);
    }

  let n_lines t = Array.length t.owner

  let mem t ~line ~pe =
    t.presence.((line * t.bwords) + (pe / 63)) land (1 lsl (pe mod 63)) <> 0

  let add t ~line ~pe =
    let w = (line * t.bwords) + (pe / 63) in
    t.presence.(w) <- t.presence.(w) lor (1 lsl (pe mod 63))

  let remove t ~line ~pe =
    let w = (line * t.bwords) + (pe / 63) in
    t.presence.(w) <- t.presence.(w) land lnot (1 lsl (pe mod 63))

  let popcount n =
    let rec go acc n = if n = 0 then acc else go (acc + (n land 1)) (n lsr 1) in
    go 0 n

  let sharer_count t ~line =
    let base = line * t.bwords in
    let c = ref 0 in
    for w = 0 to t.bwords - 1 do
      c := !c + popcount t.presence.(base + w)
    done;
    !c

  (* Visit sharers in ascending PE order — the deterministic invalidation
     order both engines replay identically. *)
  let iter_sharers t ~line f =
    let base = line * t.bwords in
    for w = 0 to t.bwords - 1 do
      let bits = t.presence.(base + w) in
      if bits <> 0 then
        for b = 0 to 62 do
          if bits land (1 lsl b) <> 0 then f ((w * 63) + b)
        done
    done

  let sharers t ~line =
    let acc = ref [] in
    iter_sharers t ~line (fun pe -> acc := pe :: !acc);
    List.rev !acc

  let clear_line t ~line =
    Array.fill t.presence (line * t.bwords) t.bwords 0;
    t.owner.(line) <- -1

  let owner t ~line = t.owner.(line)
  let set_owner t ~line pe = t.owner.(line) <- pe
end
