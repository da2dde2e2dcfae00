open Ccdp_ir

type mismatch = {
  array_name : string;
  index : int array;
  expected : float;
  got : float;
}

type report = {
  ok : bool;
  checked : int;
  mismatches : mismatch list;
  max_abs_diff : float;
}

(* Allocation-free walk: one address-map handle per array and state, the
   index advanced column-major in place (the order [point_of_linear]
   enumerates), and the PE-0 address as the canonical copy — the owner's
   for distributed data, PE 0's for replicated data, as [Memsys.get]. *)
let compare_states ~expected ~got (program : Program.t) =
  let ew = Memsys.words expected and gw = Memsys.words got in
  let checked = ref 0 in
  let bad = ref 0 in
  let mismatches = ref [] in
  let max_diff = ref 0.0 in
  List.iter
    (fun (a : Array_decl.t) ->
      if a.shared then begin
        let he = Addr_map.handle (Memsys.map expected) a.name in
        let hg = Addr_map.handle (Memsys.map got) a.name in
        let dims = a.dims in
        let idx = Array.make (Array.length dims) 0 in
        for _ = 1 to Array_decl.elems a do
          let e = ew.(Addr_map.resolve_h he ~pe:0 idx) in
          let g = gw.(Addr_map.resolve_h hg ~pe:0 idx) in
          incr checked;
          let d = abs_float (e -. g) in
          if d > !max_diff then max_diff := d;
          (* a NaN on exactly one side differs by NaN, which [d > 0.0]
             does not catch; NaN on both sides is agreement *)
          if d > 0.0 || Float.is_nan e <> Float.is_nan g then begin
            if !bad < 5 then
              mismatches :=
                {
                  array_name = a.name;
                  index = Array.copy idx;
                  expected = e;
                  got = g;
                }
                :: !mismatches;
            incr bad
          end;
          let k = ref 0 in
          while !k < Array.length idx && idx.(!k) = dims.(!k) - 1 do
            idx.(!k) <- 0;
            incr k
          done;
          if !k < Array.length idx then idx.(!k) <- idx.(!k) + 1
        done
      end)
    program.Program.arrays;
  {
    ok = !bad = 0;
    checked = !checked;
    mismatches = List.rev !mismatches;
    max_abs_diff = !max_diff;
  }

let against_sequential (program : Program.t) ~init (r : Interp.result) =
  let program = if program.Program.procs = [] then program else Program.inline program in
  let expected = Seq_oracle.run (Memsys.cfg r.Interp.sys) program ~init () in
  compare_states ~expected ~got:r.Interp.sys program

let pp_report ppf r =
  if r.ok then Format.fprintf ppf "verification OK (%d elements)" r.checked
  else begin
    Format.fprintf ppf "verification FAILED (%d elements, max |diff| %g)"
      r.checked r.max_abs_diff;
    List.iter
      (fun m ->
        Format.fprintf ppf "@,  %s(%s): expected %.17g, got %.17g" m.array_name
          (String.concat ","
             (Array.to_list (Array.map string_of_int m.index)))
          m.expected m.got)
      r.mismatches
  end
