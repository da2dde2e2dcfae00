(* Golden pin of the fuzz campaign's printed verdicts: the clean campaign
   on seed 9, the same seed with the first stale mark dropped from every
   compile (failure detail and shrunk reproducers included), and the
   protocol sabotage campaign. The counts it prints (variant runs, oracle
   checks, certifications, caught faults) move whenever a variant, a
   set-up or the certifier's input changes, so the dune rule's diff fails
   on any such change and must be acknowledged with dune promote. Runs at
   -j2, re-proving that the summaries do not depend on the job count. *)

open Ccdp_fuzz

let () =
  let ppf = Format.std_formatter and jobs = 2 in
  Format.fprintf ppf "%a@." Driver.pp_summary
    (Driver.campaign ~jobs ~seed:9 ~count:60 ());
  Format.fprintf ppf "%a@." Driver.pp_summary
    (Driver.campaign ~jobs ~mutate_stale:(Driver.drop_stale_mark 0) ~seed:9
       ~count:60 ());
  List.iter
    (Format.fprintf ppf "%a@." Driver.pp_sabotage_summary)
    (Driver.sabotage_campaign ~jobs ~seed:9 ~count:40 ())
