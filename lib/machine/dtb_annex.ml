(* [slots.(0 .. n-1)] hold the resident PEs, most recent first: the same
   order as an LRU list, kept in a fixed array so a touch moves ints
   instead of rebuilding a list. *)
type t = { slots : int array; mutable n : int }

let create ~entries =
  if entries < 0 then invalid_arg "Dtb_annex.create";
  { slots = Array.make entries 0; n = 0 }

let touch t pe =
  let i = ref 0 in
  while !i < t.n && t.slots.(!i) <> pe do
    incr i
  done;
  let hit = !i < t.n in
  (* shift the entries ahead of [pe] (or every entry that survives the
     insertion) one place back and put [pe] first *)
  let last = if hit then !i else min t.n (Array.length t.slots - 1) in
  if Array.length t.slots > 0 then begin
    Array.blit t.slots 0 t.slots 1 last;
    t.slots.(0) <- pe;
    if not hit then t.n <- last + 1
  end;
  hit

let resident t = Array.to_list (Array.sub t.slots 0 t.n)
