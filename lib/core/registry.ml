open Pipeline_model

type kind = Period_fixed | Latency_fixed

type info = {
  id : string;
  paper_name : string;
  table_name : string;
  kind : kind;
  solve : Instance.t -> threshold:float -> Solution.t option;
  reach : Instance.t -> float;
}

(* The latency-fixed loop succeeds iff its starting mapping meets the
   budget. *)
let start_latency inst = Split.latency (Split.initial inst)

let all =
  [
    {
      id = "h1-sp-mono-p";
      paper_name = "Sp mono, P fix";
      table_name = "H1";
      kind = Period_fixed;
      solve = (fun inst ~threshold -> Sp_mono_p.solve inst ~period:threshold);
      reach = Sp_mono_p.reach;
    };
    {
      id = "h2-3explo-mono";
      paper_name = "3-Explo mono";
      table_name = "H2";
      kind = Period_fixed;
      solve = (fun inst ~threshold -> Explo_mono.solve inst ~period:threshold);
      reach = Loop.reach ~gen:Loop.gen_three ~select:Loop.select_mono;
    };
    {
      id = "h3-3explo-bi";
      paper_name = "3-Explo bi";
      table_name = "H3";
      kind = Period_fixed;
      solve = (fun inst ~threshold -> Explo_bi.solve inst ~period:threshold);
      reach = Loop.reach ~gen:Loop.gen_three ~select:Loop.select_bi;
    };
    {
      id = "h4-sp-bi-p";
      paper_name = "Sp bi, P fix";
      table_name = "H4";
      kind = Period_fixed;
      solve = (fun inst ~threshold -> Sp_bi_p.solve inst ~period:threshold);
      reach = Loop.reach ~gen:Loop.gen_two ~select:Loop.select_bi;
    };
    {
      id = "h5-sp-mono-l";
      paper_name = "Sp mono, L fix";
      table_name = "H5";
      kind = Latency_fixed;
      solve = (fun inst ~threshold -> Sp_mono_l.solve inst ~latency:threshold);
      reach = start_latency;
    };
    {
      id = "h6-sp-bi-l";
      paper_name = "Sp bi, L fix";
      table_name = "H6";
      kind = Latency_fixed;
      solve = (fun inst ~threshold -> Sp_bi_l.solve inst ~latency:threshold);
      reach = start_latency;
    };
  ]

let extended =
  [
    {
      id = "h2x-3explo-mono-fb";
      paper_name = "3-Explo mono (+fb)";
      table_name = "H2x";
      kind = Period_fixed;
      solve =
        (fun inst ~threshold -> Explo_fallback.solve_mono inst ~period:threshold);
      reach =
        Loop.reach ~gen:Loop.gen_three_with_fallback ~select:Loop.select_mono;
    };
    {
      id = "h3x-3explo-bi-fb";
      paper_name = "3-Explo bi (+fb)";
      table_name = "H3x";
      kind = Period_fixed;
      solve =
        (fun inst ~threshold -> Explo_fallback.solve_bi inst ~period:threshold);
      reach =
        Loop.reach ~gen:Loop.gen_three_with_fallback ~select:Loop.select_bi;
    };
  ]

let with_extensions = all @ extended

let find key =
  let k = String.lowercase_ascii key in
  List.find_opt
    (fun info ->
      String.lowercase_ascii info.id = k
      || String.lowercase_ascii info.table_name = k
      || String.lowercase_ascii info.paper_name = k)
    with_extensions

let period_fixed = List.filter (fun i -> i.kind = Period_fixed) all
let latency_fixed = List.filter (fun i -> i.kind = Latency_fixed) all
