"""Per-pixel classifiers: random forest, stacked denoising autoencoder, and
the cascade of their stages."""
