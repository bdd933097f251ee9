fn main() {
    faultnet_experiments::cli::run_binary(env!("CARGO_BIN_NAME"))
}
