(* Shared by the benchmark's generator and its traced replay: JSON
   helpers and the question record. *)

module J = Gpo_obs.Json

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 3)
    fmt

(* ------------------------------------------------------------------ *)
(* JSON helpers                                                        *)

let mem name j =
  match J.member name j with Some v -> v | None -> die "missing field %S" name

let to_str = function J.String s -> s | _ -> die "expected a string"
let to_bool = function J.Bool b -> b | _ -> die "expected a bool"
let to_list = function J.List l -> l | J.Null -> [] | _ -> die "expected a list"
let strings l = J.List (List.map (fun s -> J.String s) l)

let read_json path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match J.of_string s with Ok j -> j | Error e -> die "%s: %s" path e

let write_json path j =
  let oc = open_out_bin path in
  J.to_channel oc j;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Questions                                                           *)

(* A question is one verification job: a net (by id, shared between
   questions), a cover (empty = deadlock freedom), an engine and the
   reduce flag.  [expect] is set only where the model family fixes the
   answer; every other verdict comes from [oracle]. *)
type question = {
  id : string;
  net : string;
  cover : string list;
  engine : string;
  reduce : bool;
  expect : string option;
}

let json_of_question q =
  J.Obj
    [
      ("id", J.String q.id);
      ("net", J.String q.net);
      ("cover", strings q.cover);
      ("engine", J.String q.engine);
      ("reduce", J.Bool q.reduce);
      ("expect", match q.expect with None -> J.Null | Some v -> J.String v);
    ]

let question_of_json j =
  {
    id = to_str (mem "id" j);
    net = to_str (mem "net" j);
    cover = List.map to_str (to_list (mem "cover" j));
    engine = to_str (mem "engine" j);
    reduce = to_bool (mem "reduce" j);
    expect =
      (match J.member "expect" j with Some (J.String v) -> Some v | _ -> None);
  }

let target_of net cover =
  match cover with
  | [] -> (net, None)
  | places ->
      let prop =
        {
          Petri.Safety.name = "prop";
          never_all = List.map (Petri.Net.place_index net) places;
        }
      in
      (Petri.Safety.monitor net prop, Some prop)

