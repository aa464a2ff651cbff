(* The codec is [Ncg_experiments.Json]; this alias stays only while the
   benchmark harness names the service copy. *)
include Ncg_experiments.Json
