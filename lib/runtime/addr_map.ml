open Ccdp_ir

type t = {
  np : int;
  span : int;
  layouts : (string, Ccdp_craft.Layout.t) Hashtbl.t;
  bases : (string, int) Hashtbl.t;
}

let make (p : Program.t) ~n_pes ~line_words ?(cache_lines = 0) () =
  let layouts = Hashtbl.create 16 and bases = Hashtbl.create 16 in
  let next = ref 0 in
  let idx = ref 0 in
  let align w = (w + line_words - 1) / line_words * line_words in
  (* pad [next] up to the first address whose cache set is [slot] *)
  let color_to slot pos =
    if cache_lines = 0 then pos
    else
      let lines = pos / line_words in
      let rem = lines mod cache_lines in
      let pad_lines = (slot - rem + cache_lines) mod cache_lines in
      pos + (pad_lines * line_words)
  in
  List.iter
    (fun (a : Array_decl.t) ->
      let lay = Ccdp_craft.Layout.make ~n_pes a in
      Hashtbl.replace layouts a.name lay;
      let slot = !idx mod 16 * (cache_lines / 16) in
      let base = color_to slot (align !next) in
      Hashtbl.replace bases a.name base;
      next := base + align lay.Ccdp_craft.Layout.per_pe_words;
      incr idx)
    p.Program.arrays;
  { np = n_pes; span = max line_words (align !next); layouts; bases }

let pe_span t = t.span
let total_words t = t.np * t.span

let layout t name =
  match Hashtbl.find_opt t.layouts name with
  | Some l -> l
  | None -> invalid_arg ("Addr_map: unknown array " ^ name)

let base t name =
  match Hashtbl.find t.bases name with
  | b -> b
  | exception Not_found -> invalid_arg ("Addr_map: unknown array " ^ name)

(* Pre-resolved per-array handle: one layout + base lookup at compile time,
   then every access is pure arithmetic. Because each array's offsets stay
   inside [base, base + aligned per-PE words) and the windows tile the
   address space, [addr / span] recovers the owning window, so the target
   never needs to travel alongside the address. *)
type handle = { hlay : Ccdp_craft.Layout.t; hbase : int; hspan : int }

let handle t name = { hlay = layout t name; hbase = base t name; hspan = t.span }

let resolve_h h ~pe idx =
  let off = h.hbase + Ccdp_craft.Layout.local_offset h.hlay idx in
  let ow = Ccdp_craft.Layout.owner_id h.hlay idx in
  if ow < 0 || ow = pe then (pe * h.hspan) + off else (ow * h.hspan) + off

let target_of h ~pe ~addr =
  let ow = addr / h.hspan in
  if ow = pe then -1 else ow

let all_copies t name idx =
  let lay = layout t name in
  let off = base t name + Ccdp_craft.Layout.local_offset lay idx in
  match Ccdp_craft.Layout.owner_id lay idx with
  | -1 -> List.init t.np (fun pe -> (pe * t.span) + off)
  | owner -> [ (owner * t.span) + off ]
