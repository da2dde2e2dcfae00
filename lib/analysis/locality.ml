open Ccdp_ir

type group = {
  lead : Ref_info.t;
  covered : Ref_info.t list;
  span_words : int;
  stride_words : int;
}

(* Column-major (Fortran) element strides of each dimension, in words. *)
let dim_strides (decl : Array_decl.t) =
  let rank = Array_decl.rank decl in
  let strides = Array.make rank 1 in
  for d = 1 to rank - 1 do
    strides.(d) <- strides.(d - 1) * decl.dims.(d - 1)
  done;
  strides

let word_offset decl (r : Reference.t) =
  let strides = dim_strides decl in
  let off = ref 0 in
  Array.iteri
    (fun d e -> off := !off + (Affine.const_part e * strides.(d)))
    r.subs;
  !off

let stride_wrt decl (r : Reference.t) ~var =
  let strides = dim_strides decl in
  let s = ref 0 in
  Array.iteri (fun d e -> s := !s + (Affine.coeff e var * strides.(d))) r.subs;
  !s

(* gcd of the word strides of every varying term: all addresses of the
   reference are congruent to its constant offset modulo this. *)
let varying_gcd decl (r : Reference.t) =
  let strides = dim_strides decl in
  let rec gcd a b = if b = 0 then abs a else gcd b (a mod b) in
  let g = ref 0 in
  Array.iteri
    (fun d e ->
      List.iter (fun (_, c) -> g := gcd !g (c * strides.(d))) (Affine.terms e))
    r.subs;
  !g

let fdiv a b = if a >= 0 then a / b else -(((-a) + b - 1) / b)

let group ~decl_of ~line_words ~inner_var infos =
  (* partition into uniformly-generated classes, preserving syntactic order *)
  let classes : (Ref_info.t list ref) list ref = ref [] in
  List.iter
    (fun (i : Ref_info.t) ->
      match
        List.find_opt
          (fun cls ->
            match !cls with
            | rep :: _ ->
                Reference.uniformly_generated rep.Ref_info.ref_ i.Ref_info.ref_
            | [] -> false)
          !classes
      with
      | Some cls -> cls := !cls @ [ i ]
      | None -> classes := !classes @ [ ref [ i ] ])
    infos;
  let cluster_class members =
    match members with
    | [] -> []
    | rep :: _ ->
        let decl = decl_of rep.Ref_info.ref_.Reference.array_name in
        let offset i = word_offset decl i.Ref_info.ref_ in
        let stride =
          match inner_var with
          | None -> 0
          | Some (var, step) -> stride_wrt decl rep.Ref_info.ref_ ~var * step
        in
        if stride = 0 then begin
          (* straight-line / loop-invariant addresses: exact same-line test,
             lead = syntactically first *)
          let vg = varying_gcd decl rep.Ref_info.ref_ in
          let same_line a b =
            let oa = offset a and ob = offset b in
            oa = ob
            || (vg mod line_words = 0 && fdiv oa line_words = fdiv ob line_words)
          in
          let rec build = function
            | [] -> []
            | lead :: rest ->
                let covered, others = List.partition (same_line lead) rest in
                let span =
                  List.fold_left
                    (fun acc m -> max acc (abs (offset m - offset lead)))
                    0 covered
                in
                { lead; covered; span_words = span; stride_words = 0 }
                :: build others
          in
          build members
        end
        else begin
          (* loop traversal: lead is the first reference to touch each line,
             i.e. smallest offset for ascending strides, largest for
             descending; membership by the |delta| < line heuristic *)
          let sorted =
            List.sort
              (fun a b ->
                if stride > 0 then compare (offset a) (offset b)
                else compare (offset b) (offset a))
              members
          in
          let rec build = function
            | [] -> []
            | lead :: rest ->
                let lead_off = offset lead in
                let covered, others =
                  List.partition
                    (fun m -> abs (offset m - lead_off) < line_words)
                    rest
                in
                let span =
                  List.fold_left
                    (fun acc m -> max acc (abs (offset m - lead_off)))
                    0 covered
                in
                { lead; covered; span_words = span; stride_words = abs stride }
                :: build others
          in
          build sorted
        end
  in
  List.concat_map (fun cls -> cluster_class !cls) !classes
