type t = { name : string; descr : string; program : Ccdp_ir.Program.t }

let make ~name ~descr program = { name; descr; program }
