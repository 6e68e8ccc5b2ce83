package risk

var ReferenceAnalyze = referenceAnalyze // for property tests over proptest/scenario, which imports risk
